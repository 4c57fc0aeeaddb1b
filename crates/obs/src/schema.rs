//! The normative telemetry line schema and its validator.
//!
//! Every telemetry line is one JSON object. Top-level keys:
//!
//! | key       | type   | presence                                  |
//! |-----------|--------|-------------------------------------------|
//! | `seq`     | u64    | always; strictly increasing within a file |
//! | `t_nanos` | u64    | always; monotonic epoch nanoseconds       |
//! | `kind`    | string | always; one of the five kinds below       |
//! | `name`    | string | always; non-empty dotted `layer.subject`  |
//! | `span`    | u64    | `span_open` / `span_close` only           |
//! | `nanos`   | u64    | `span_close` only; span duration          |
//! | `value`   | varies | `counter` (u64), `gauge` (f64 or one of   |
//! |           |        | the strings `"NaN"`, `"inf"`, `"-inf"`)   |
//! | `fields`  | object | optional; flat scalars only               |
//!
//! Kinds: `span_open`, `span_close`, `counter`, `gauge`, `event`.
//! Spans nest strictly: `span_close` must name the innermost open span id,
//! and every span must be closed by end of file. No other top-level keys
//! are allowed. `fields` values must be numbers, strings or booleans —
//! never nested objects, arrays or null.
//!
//! Five series carry fields the validator checks by name:
//!
//! | series | kind | fields |
//! |--------|------|--------|
//! | `solver.solve` | `span_open` | `seed`: `"cold"` or `"warm"` (required) |
//! | `solver.hjb` | `span_close` | `min_cfl_margin`: f64; `max_substeps`: u64 (required) |
//! | `solver.fpk` | `span_close` | as `solver.hjb`, plus `worst_mass_drift`: f64, `worst_mass_drift_step`: u64, `clipped_mass`: f64 (required) |
//! | `sim.prepare_epoch` | `span_close` | `warm`, `cold`, `fallback`: u64 counts — all three or none |
//! | `serve.swap_reject` | `counter` | `reason`: `"io"`, `"corrupt"` or `"not_converged"` (required) |
//!
//! An f64 field is a number or one of the strings `"NaN"`, `"inf"`,
//! `"-inf"`. The `solver.hjb`/`solver.fpk` fields are one sweep's PDE
//! health folded over its macro steps: the smallest CFL headroom
//! `max_dt / sub_dt` (`"inf"` when no step had dynamics), the most
//! sub-steps, the largest-magnitude mass error before clipping with its
//! step, and the negative mass clipped in total.
//!
//! The [`Validator`] checks a stream line-by-line; the
//! `validate_telemetry` binary applies it to files (CI runs it over
//! bench-emitted telemetry and fails the build on any violation).
//!
//! # Live streams over the wire
//!
//! The same lines travel live through `mfgcp-ctl` (`mfgcp simulate
//! --observe` + `mfgcp watch`): the [`BroadcastSink`](crate::BroadcastSink)
//! fans each recorded event out to bounded per-subscriber queues, and
//! the control server ships them as `0xC0` frames on the shared
//! `mfgcp_serve::wire` layer (LE `u32` length + opcode + JSONL body,
//! interleaved between request/reply frames on one connection).
//! Two schema consequences, both deliberate:
//!
//! * **Subscription filters are name prefixes** ([`SubscriptionFilter`](crate::SubscriptionFilter);
//!   empty = everything), matched against the dotted `name` — e.g.
//!   `market.slot`, `net.shard`, `solver`. Filtering keeps recorder
//!   `seq` numbers, so a filtered stream is *gapped but strictly
//!   increasing* — exactly what this validator requires within a file.
//! * **Slow subscribers lose frames, never slow the simulation.** A
//!   full queue drops the newest frame for that subscriber and counts
//!   it (`enqueued + dropped == matched`, exact). A lossy stream of
//!   `event` / `counter` / `gauge` kinds still validates; span kinds do
//!   not survive loss (a dropped `span_close` breaks the nesting rule),
//!   so subscribe to non-span series when piping a live stream into
//!   this validator — CI's `observe-smoke` job does exactly that.

use crate::event::Kind;
use crate::json::{self, Json};

/// A schema violation, with the 1-based line number it occurred on.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaError {
    /// 1-based line number within the validated stream.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SchemaError {}

/// Streaming validator for one telemetry file.
#[derive(Debug, Default)]
pub struct Validator {
    lines: usize,
    last_seq: Option<u64>,
    last_t_nanos: Option<u64>,
    open_spans: Vec<u64>,
}

impl Validator {
    /// A fresh validator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lines validated so far.
    pub fn lines(&self) -> usize {
        self.lines
    }

    fn fail(&self, message: impl Into<String>) -> SchemaError {
        SchemaError {
            line: self.lines,
            message: message.into(),
        }
    }

    /// Validate the next line of the stream.
    pub fn check_line(&mut self, line: &str) -> Result<(), SchemaError> {
        self.lines += 1;
        let doc = json::parse(line).map_err(|e| self.fail(format!("not valid JSON: {e}")))?;
        let members = doc
            .members()
            .ok_or_else(|| self.fail("top level is not an object"))?;

        for (key, _) in members {
            if !matches!(
                key.as_str(),
                "seq" | "t_nanos" | "kind" | "name" | "span" | "nanos" | "value" | "fields"
            ) {
                return Err(self.fail(format!("unknown top-level key {key:?}")));
            }
        }

        let seq = require_u64(&doc, "seq").map_err(|m| self.fail(m))?;
        if let Some(last) = self.last_seq {
            if seq <= last {
                return Err(self.fail(format!(
                    "seq {seq} is not strictly greater than previous seq {last}"
                )));
            }
        }
        self.last_seq = Some(seq);

        let t_nanos = require_u64(&doc, "t_nanos").map_err(|m| self.fail(m))?;
        if let Some(last) = self.last_t_nanos {
            if t_nanos < last {
                return Err(self.fail(format!(
                    "t_nanos {t_nanos} went backwards (previous {last})"
                )));
            }
        }
        self.last_t_nanos = Some(t_nanos);

        let kind_str = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| self.fail("missing or non-string \"kind\""))?;
        let kind =
            Kind::parse(kind_str).ok_or_else(|| self.fail(format!("unknown kind {kind_str:?}")))?;

        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| self.fail("missing or non-string \"name\""))?;
        if name.is_empty() {
            return Err(self.fail("\"name\" is empty"));
        }

        let span = doc.get("span");
        let nanos = doc.get("nanos");
        let value = doc.get("value");

        match kind {
            Kind::SpanOpen => {
                let id = require_u64(&doc, "span").map_err(|m| self.fail(m))?;
                if nanos.is_some() || value.is_some() {
                    return Err(self.fail("span_open must not carry \"nanos\" or \"value\""));
                }
                if self.open_spans.contains(&id) {
                    return Err(self.fail(format!("span id {id} opened twice")));
                }
                self.open_spans.push(id);
            }
            Kind::SpanClose => {
                let id = require_u64(&doc, "span").map_err(|m| self.fail(m))?;
                require_u64(&doc, "nanos").map_err(|m| self.fail(m))?;
                if value.is_some() {
                    return Err(self.fail("span_close must not carry \"value\""));
                }
                match self.open_spans.last() {
                    Some(&top) if top == id => {
                        self.open_spans.pop();
                    }
                    Some(&top) => {
                        return Err(self.fail(format!(
                            "span_close for id {id} but innermost open span is {top}"
                        )));
                    }
                    None => {
                        return Err(self.fail(format!("span_close for id {id} with no span open")));
                    }
                }
            }
            Kind::Counter => {
                if span.is_some() || nanos.is_some() {
                    return Err(self.fail("counter must not carry \"span\" or \"nanos\""));
                }
                let v = value.ok_or_else(|| self.fail("counter missing \"value\""))?;
                if v.as_u64().is_none() {
                    return Err(self.fail("counter \"value\" must be a non-negative integer"));
                }
            }
            Kind::Gauge => {
                if span.is_some() || nanos.is_some() {
                    return Err(self.fail("gauge must not carry \"span\" or \"nanos\""));
                }
                let v = value.ok_or_else(|| self.fail("gauge missing \"value\""))?;
                if !is_f64(v) {
                    return Err(
                        self.fail("gauge \"value\" must be a number or \"NaN\"/\"inf\"/\"-inf\"")
                    );
                }
            }
            Kind::Event => {
                if span.is_some() || nanos.is_some() || value.is_some() {
                    return Err(self.fail("event must not carry \"span\", \"nanos\" or \"value\""));
                }
            }
        }

        let fields = doc.get("fields");
        if let Some(fields) = fields {
            let members = fields
                .members()
                .ok_or_else(|| self.fail("\"fields\" is not an object"))?;
            for (key, v) in members {
                let scalar = matches!(v, Json::Num(_) | Json::Str(_) | Json::Bool(_));
                if !scalar {
                    return Err(self.fail(format!(
                        "field {key:?} is not a scalar (numbers, strings, booleans only)"
                    )));
                }
            }
        }
        check_named_fields(kind, name, fields).map_err(|m| self.fail(m))
    }

    /// End-of-stream checks: every span must have been closed.
    pub fn finish(&self) -> Result<(), SchemaError> {
        if let Some(&id) = self.open_spans.last() {
            return Err(SchemaError {
                line: self.lines,
                message: format!(
                    "end of stream with {} span(s) still open (innermost id {id})",
                    self.open_spans.len()
                ),
            });
        }
        Ok(())
    }
}

/// Validate a whole telemetry document (newline-separated lines; empty
/// trailing lines ignored). Returns the number of validated lines.
pub fn validate_str(text: &str) -> Result<usize, SchemaError> {
    let mut v = Validator::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        v.check_line(line)?;
    }
    v.finish()?;
    Ok(v.lines())
}

/// The per-series field rules of the table in the module docs.
fn check_named_fields(kind: Kind, name: &str, fields: Option<&Json>) -> Result<(), String> {
    let field = |key: &str| fields.and_then(|f| f.get(key));
    match (kind, name) {
        (Kind::SpanOpen, "solver.solve") => match field("seed").and_then(Json::as_str) {
            Some("cold" | "warm") => Ok(()),
            other => Err(format!(
                "solver.solve needs a \"seed\" field of \"cold\" or \"warm\", got {other:?}"
            )),
        },
        (Kind::SpanClose, "solver.hjb" | "solver.fpk") => {
            let mut required = vec![("min_cfl_margin", true), ("max_substeps", false)];
            if name == "solver.fpk" {
                required.extend([
                    ("worst_mass_drift", true),
                    ("worst_mass_drift_step", false),
                    ("clipped_mass", true),
                ]);
            }
            for (key, float) in required {
                let ok = field(key).is_some_and(|v| {
                    if float {
                        is_f64(v)
                    } else {
                        v.as_u64().is_some()
                    }
                });
                if !ok {
                    let kind = if float { "an f64" } else { "a count" };
                    return Err(format!("{name} close needs {key:?} as {kind}"));
                }
            }
            Ok(())
        }
        (Kind::SpanClose, "sim.prepare_epoch") => {
            let counts = ["warm", "cold", "fallback"].map(field);
            if counts.iter().all(Option::is_none)
                || counts.iter().all(|c| c.and_then(Json::as_u64).is_some())
            {
                Ok(())
            } else {
                Err(
                    "sim.prepare_epoch close needs all of \"warm\", \"cold\", \"fallback\" \
                     as counts, or none"
                        .to_string(),
                )
            }
        }
        (Kind::Counter, "serve.swap_reject") => match field("reason").and_then(Json::as_str) {
            Some("io" | "corrupt" | "not_converged") => Ok(()),
            other => Err(format!(
                "serve.swap_reject needs a \"reason\" field of \"io\", \"corrupt\" or \
                 \"not_converged\", got {other:?}"
            )),
        },
        _ => Ok(()),
    }
}

/// A number, or one of the strings non-finite floats encode to.
fn is_f64(v: &Json) -> bool {
    v.as_f64().is_some() || matches!(v.as_str(), Some("NaN" | "inf" | "-inf"))
}

fn require_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-u64 {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySink, RecorderHandle};
    use std::sync::Arc;

    fn emitted_stream() -> String {
        let sink = Arc::new(MemorySink::new());
        let rec = RecorderHandle::new(sink.clone());
        let prep = rec.span_with("sim.prepare_epoch", &[("epoch", 0u64.into())]);
        let solve = rec.span_with(
            "solver.solve",
            &[("method", "picard".into()), ("seed", "cold".into())],
        );
        // Coarse-to-fine continuation: per-level iteration counts and the
        // residual at hand-off, inside one solver.continuation span.
        let cont = rec.span_with("solver.continuation", &[("levels", 1u64.into())]);
        rec.event(
            "solver.continuation.level",
            &[
                ("level", 0u64.into()),
                ("grid_h", 8u64.into()),
                ("grid_q", 24u64.into()),
                ("iterations", 5u64.into()),
                ("residual", 1.2e-3.into()),
                ("converged", true.into()),
            ],
        );
        cont.close(&[]);
        for psi in 0..3u64 {
            let hjb = rec.span("solver.hjb");
            hjb.close(&[
                ("min_cfl_margin", 1.8.into()),
                ("max_substeps", 2u64.into()),
            ]);
            rec.event(
                "solver.iteration",
                &[
                    ("psi", psi.into()),
                    ("residual", (0.5f64 / (psi + 1) as f64).into()),
                ],
            );
            let fpk = rec.span("solver.fpk");
            fpk.close(&[
                ("min_cfl_margin", f64::INFINITY.into()),
                ("max_substeps", 1u64.into()),
                ("worst_mass_drift", (-1e-16).into()),
                ("worst_mass_drift_step", psi.into()),
                ("clipped_mass", 0.0.into()),
            ]);
            rec.counter("market.trades", 10 * psi, &[]);
        }
        solve.close(&[("converged", true.into())]);
        prep.close(&[
            ("warm", 0u64.into()),
            ("cold", 1u64.into()),
            ("fallback", 0u64.into()),
        ]);
        // Mid-run equilibrium hot-swap (generation-counted, audited).
        rec.event(
            "sim.reprice.swap",
            &[
                ("generation", 1u64.into()),
                ("content", 0u64.into()),
                ("epoch", 0u64.into()),
                ("slot", 10u64.into()),
                ("converged", true.into()),
                ("iterations", 2u64.into()),
            ],
        );
        // A refused hot swap, typed by its reason.
        rec.counter(
            "serve.swap_reject",
            1,
            &[("reason", "not_converged".into())],
        );
        sink.events()
            .iter()
            .map(|e| e.to_json_line())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn real_emitted_stream_validates() {
        let text = emitted_stream();
        let n = validate_str(&text).unwrap();
        assert_eq!(n, text.lines().count());
    }

    #[test]
    fn non_finite_gauges_validate() {
        let sink = Arc::new(MemorySink::new());
        let rec = RecorderHandle::new(sink.clone());
        rec.gauge("pde.hjb.poison", f64::NAN, &[("i", 3u64.into())]);
        rec.gauge("pde.hjb.poison", f64::INFINITY, &[]);
        let text = sink
            .events()
            .iter()
            .map(|e| e.to_json_line())
            .collect::<Vec<_>>()
            .join("\n");
        validate_str(&text).unwrap();
    }

    #[test]
    fn rejects_seq_regression() {
        let a = r#"{"seq":1,"t_nanos":5,"kind":"event","name":"a"}"#;
        let b = r#"{"seq":1,"t_nanos":6,"kind":"event","name":"b"}"#;
        let err = validate_str(&format!("{a}\n{b}")).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("strictly greater"), "{err}");
    }

    #[test]
    fn rejects_time_regression() {
        let a = r#"{"seq":0,"t_nanos":10,"kind":"event","name":"a"}"#;
        let b = r#"{"seq":1,"t_nanos":9,"kind":"event","name":"b"}"#;
        let err = validate_str(&format!("{a}\n{b}")).unwrap_err();
        assert!(err.message.contains("went backwards"), "{err}");
    }

    #[test]
    fn rejects_unbalanced_and_misnested_spans() {
        let open = r#"{"seq":0,"t_nanos":1,"kind":"span_open","name":"a","span":0}"#;
        let err = validate_str(open).unwrap_err();
        assert!(err.message.contains("still open"), "{err}");

        let open2 = r#"{"seq":1,"t_nanos":2,"kind":"span_open","name":"b","span":1}"#;
        let close_wrong =
            r#"{"seq":2,"t_nanos":3,"kind":"span_close","name":"a","span":0,"nanos":1}"#;
        let err = validate_str(&format!("{open}\n{open2}\n{close_wrong}")).unwrap_err();
        assert!(err.message.contains("innermost"), "{err}");

        let close_orphan =
            r#"{"seq":0,"t_nanos":1,"kind":"span_close","name":"a","span":7,"nanos":1}"#;
        let err = validate_str(close_orphan).unwrap_err();
        assert!(err.message.contains("no span open"), "{err}");
    }

    #[test]
    fn rejects_partial_epoch_seed_counts() {
        let open =
            r#"{"seq":0,"t_nanos":1,"kind":"span_open","name":"sim.prepare_epoch","span":0}"#;
        let close = r#"{"seq":1,"t_nanos":2,"kind":"span_close","name":"sim.prepare_epoch","span":0,"nanos":1,"fields":{"warm":2,"cold":1}}"#;
        let err = validate_str(&format!("{open}\n{close}")).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("all of"), "{err}");
    }

    #[test]
    fn rejects_sweep_closes_without_their_health_fields() {
        let open = |name: &str| {
            format!(r#"{{"seq":0,"t_nanos":1,"kind":"span_open","name":"{name}","span":0}}"#)
        };
        let close = |name: &str, fields: &str| {
            format!(
                r#"{{"seq":1,"t_nanos":2,"kind":"span_close","name":"{name}","span":0,"nanos":1{fields}}}"#
            )
        };
        let hjb = r#","fields":{"min_cfl_margin":"inf","max_substeps":3}"#;
        let fpk = r#","fields":{"min_cfl_margin":1.5,"max_substeps":3,"worst_mass_drift":"NaN","worst_mass_drift_step":4,"clipped_mass":0.0}"#;
        for (name, fields) in [("solver.hjb", hjb), ("solver.fpk", fpk)] {
            validate_str(&format!("{}\n{}", open(name), close(name, fields))).unwrap();
        }
        for (name, fields, needle) in [
            ("solver.hjb", "", "min_cfl_margin"),
            (
                "solver.hjb",
                r#","fields":{"min_cfl_margin":2.0,"max_substeps":1.5}"#,
                "max_substeps",
            ),
            ("solver.fpk", hjb, "worst_mass_drift"),
            (
                "solver.fpk",
                r#","fields":{"min_cfl_margin":"x","max_substeps":1,"worst_mass_drift":0.0,"worst_mass_drift_step":0,"clipped_mass":0.0}"#,
                "min_cfl_margin",
            ),
        ] {
            let err =
                validate_str(&format!("{}\n{}", open(name), close(name, fields))).unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.message.contains(needle), "{err}");
        }
    }

    #[test]
    fn rejects_an_untyped_swap_reject() {
        for fields in [r#""#, r#","fields":{"reason":"disk"}"#] {
            let line = format!(
                r#"{{"seq":0,"t_nanos":1,"kind":"counter","name":"serve.swap_reject","value":1{fields}}}"#
            );
            let err = validate_str(&line).unwrap_err();
            assert!(err.message.contains("reason"), "{err}");
        }
    }

    #[test]
    fn rejects_kind_payload_mismatches() {
        for (line, needle) in [
            (
                r#"{"seq":0,"t_nanos":1,"kind":"counter","name":"c","value":-1}"#,
                "non-negative integer",
            ),
            (
                r#"{"seq":0,"t_nanos":1,"kind":"counter","name":"c"}"#,
                "missing \"value\"",
            ),
            (
                r#"{"seq":0,"t_nanos":1,"kind":"gauge","name":"g","value":"huge"}"#,
                "must be a number",
            ),
            (
                r#"{"seq":0,"t_nanos":1,"kind":"event","name":"e","value":1}"#,
                "must not carry",
            ),
            (
                r#"{"seq":0,"t_nanos":1,"kind":"gauge","name":"g","value":1.0,"nanos":3}"#,
                "must not carry",
            ),
            (
                r#"{"seq":0,"t_nanos":1,"kind":"mystery","name":"m"}"#,
                "unknown kind",
            ),
            (r#"{"seq":0,"t_nanos":1,"kind":"event","name":""}"#, "empty"),
            (
                r#"{"seq":0,"t_nanos":1,"kind":"event","name":"e","extra":1}"#,
                "unknown top-level key",
            ),
            (
                r#"{"seq":0,"t_nanos":1,"kind":"event","name":"e","fields":{"k":[1]}}"#,
                "not a scalar",
            ),
            (
                r#"{"seq":0,"t_nanos":1,"kind":"span_open","name":"solver.solve","span":0}"#,
                "\"seed\"",
            ),
            (
                r#"{"seq":0,"t_nanos":1,"kind":"span_open","name":"solver.solve","span":0,"fields":{"seed":"tepid"}}"#,
                "\"seed\"",
            ),
            (r#"not json"#, "not valid JSON"),
            (r#"[1,2]"#, "not an object"),
        ] {
            let err = validate_str(line).unwrap_err();
            assert!(err.message.contains(needle), "{line} -> {err}");
        }
    }
}
