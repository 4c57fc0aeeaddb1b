//! CI perf-regression gate: diff a freshly produced `BENCH_*.json` report
//! against its committed baseline and fail (exit 1) if any timing or rate
//! metric regressed past the tolerance or any work counter changed at all.
//!
//! Samples are matched by an identity key built from every string-valued
//! field plus the size fields (`m`, `j`, `nx`, `ny`, `connections`,
//! `pairs`, `slots`), so a reduced CI
//! sweep compares against the matching subset of a committed full sweep —
//! unmatched baseline samples are reported as skipped, never failed.
//! Metric direction is inferred from the field name: `*_nanos`,
//! `*_micros`, `*_millis`, `*_secs` and `*_iterations` regress upward, `speedup`, `*_speedup` and `*_qps`
//! regress downward; every other numeric field is informational and
//! ignored. The `*_iterations` columns count deterministic work, so they
//! are gated exactly: any difference from the baseline, better or worse,
//! fails until the baseline is re-recorded. The tolerance applies to the
//! timing and rate columns only.
//!
//! Run:
//! `cargo run --release -p mfgcp-bench --bin bench_compare -- \
//!    --baseline BENCH_solver.baseline.json --fresh BENCH_solver.json \
//!    [--tolerance 0.2]`
//!
//! The default tolerance is 0.2 (20% worse than baseline fails); CI passes
//! a looser value because shared runners are noisy.

use std::process::ExitCode;

use mfgcp_obs::json::{parse, Json};

/// Size fields that distinguish samples of the same kind; everything
/// string-valued is an identity field automatically.
const ID_NUM_KEYS: [&str; 7] = ["m", "j", "nx", "ny", "connections", "pairs", "slots"];

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Status {
    Ok,
    Improved,
    Regression,
    /// A work counter differs from its baseline in either direction.
    Changed,
}

#[derive(Debug)]
struct MetricRow {
    id: String,
    metric: String,
    baseline: f64,
    fresh: f64,
    /// Signed relative change, positive = fresh is larger.
    delta: f64,
    status: Status,
}

/// `Some(true)` if smaller is better, `Some(false)` if larger is better,
/// `None` if the field is not a performance metric.
fn lower_is_better(name: &str) -> Option<bool> {
    if name == "speedup" || name.ends_with("_speedup") || name.ends_with("_qps") {
        Some(false)
    } else if name.ends_with("_nanos")
        || name.ends_with("_micros")
        || name.ends_with("_millis")
        || name.ends_with("_secs")
        || name.ends_with("_iterations")
    {
        Some(true)
    } else {
        None
    }
}

/// Whether `name` is a deterministic work counter, compared exactly.
fn is_work_counter(name: &str) -> bool {
    name.ends_with("_iterations")
}

/// Identity key of one sample: `bench` kind is carried by the caller;
/// within a report, string fields plus the size fields pin the sample.
fn identity(sample: &Json) -> String {
    let mut parts = Vec::new();
    if let Some(members) = sample.members() {
        for (key, value) in members {
            if let Some(s) = value.as_str() {
                parts.push(format!("{key}={s}"));
            } else if ID_NUM_KEYS.contains(&key.as_str()) {
                if let Some(v) = value.as_f64() {
                    parts.push(format!("{key}={v}"));
                }
            }
        }
    }
    parts.join(" ")
}

/// Compare every matched sample's metrics. Returns the per-metric rows and
/// the identities of baseline samples the fresh report did not reproduce.
fn compare(baseline: &Json, fresh: &Json, tolerance: f64) -> (Vec<MetricRow>, Vec<String>) {
    let empty = Vec::new();
    let base_samples = match baseline.get("samples") {
        Some(Json::Arr(items)) => items,
        _ => &empty,
    };
    let fresh_samples = match fresh.get("samples") {
        Some(Json::Arr(items)) => items,
        _ => &empty,
    };
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for base in base_samples {
        let id = identity(base);
        let Some(matching) = fresh_samples.iter().find(|s| identity(s) == id) else {
            skipped.push(id);
            continue;
        };
        let Some(members) = base.members() else {
            continue;
        };
        for (key, value) in members {
            let Some(lower) = lower_is_better(key) else {
                continue;
            };
            let (Some(b), Some(f)) = (value.as_f64(), matching.get(key).and_then(Json::as_f64))
            else {
                continue;
            };
            if !(b.is_finite() && f.is_finite()) || b <= 0.0 {
                continue;
            }
            let delta = (f - b) / b;
            let worse = if lower { delta } else { -delta };
            let status = if is_work_counter(key) {
                if f == b {
                    Status::Ok
                } else {
                    Status::Changed
                }
            } else if worse > tolerance {
                Status::Regression
            } else if worse < 0.0 {
                Status::Improved
            } else {
                Status::Ok
            };
            rows.push(MetricRow {
                id: id.clone(),
                metric: key.clone(),
                baseline: b,
                fresh: f,
                delta,
                status,
            });
        }
    }
    (rows, skipped)
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read bench report `{path}`: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("`{path}` is not valid JSON: {e}"))
}

fn parse_args() -> (String, String, f64) {
    let mut baseline = None;
    let mut fresh = None;
    let mut tolerance: f64 = 0.2;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--baseline" => baseline = Some(it.next().expect("--baseline needs a file path")),
            "--fresh" => fresh = Some(it.next().expect("--fresh needs a file path")),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .expect("--tolerance needs a fraction")
                    .parse()
                    .expect("--tolerance must be a number");
                assert!(
                    tolerance >= 0.0 && tolerance.is_finite(),
                    "--tolerance must be a non-negative fraction"
                );
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (supported: --baseline FILE --fresh FILE \
                     --tolerance F)"
                );
                std::process::exit(2);
            }
        }
    }
    let baseline = baseline.unwrap_or_else(|| {
        eprintln!("--baseline FILE is required");
        std::process::exit(2);
    });
    let fresh = fresh.unwrap_or_else(|| {
        eprintln!("--fresh FILE is required");
        std::process::exit(2);
    });
    (baseline, fresh, tolerance)
}

fn main() -> ExitCode {
    let (baseline_path, fresh_path, tolerance) = parse_args();
    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);
    let base_kind = baseline.get("bench").and_then(Json::as_str).unwrap_or("?");
    let fresh_kind = fresh.get("bench").and_then(Json::as_str).unwrap_or("?");
    assert_eq!(
        base_kind, fresh_kind,
        "bench kinds differ: baseline `{base_kind}` vs fresh `{fresh_kind}`"
    );

    let (rows, skipped) = compare(&baseline, &fresh, tolerance);
    println!(
        "bench_compare `{base_kind}`: {} vs {} (tolerance {:.0}%)",
        baseline_path,
        fresh_path,
        tolerance * 100.0
    );
    println!(
        "{:<52} {:>28} {:>12} {:>12} {:>8}  status",
        "sample", "metric", "baseline", "fresh", "delta"
    );
    for row in &rows {
        println!(
            "{:<52} {:>28} {:>12.2} {:>12.2} {:>+7.1}%  {}",
            row.id,
            row.metric,
            row.baseline,
            row.fresh,
            row.delta * 100.0,
            match row.status {
                Status::Ok => "ok",
                Status::Improved => "improved",
                Status::Regression => "REGRESSION",
                Status::Changed => "CHANGED",
            }
        );
    }
    for id in &skipped {
        println!("{id:<52} (not in fresh report, skipped)");
    }
    assert!(
        !rows.is_empty(),
        "no comparable metrics matched between the two reports"
    );
    let count = |status| rows.iter().filter(|r| r.status == status).count();
    let regressions = count(Status::Regression);
    let changed = count(Status::Changed);
    if regressions > 0 {
        eprintln!("{regressions} metric(s) regressed past the tolerance");
    }
    if changed > 0 {
        eprintln!(
            "{changed} work counter(s) differ from the baseline: if the change is \
             intended, re-record the baseline from a fresh run and commit it"
        );
    }
    if regressions + changed > 0 {
        ExitCode::from(1)
    } else {
        println!("all {} metric(s) within tolerance", rows.len());
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(samples: &str) -> Json {
        parse(&format!(r#"{{"bench":"t","samples":[{samples}]}}"#)).unwrap()
    }

    #[test]
    fn direction_rules_cover_the_committed_reports() {
        assert_eq!(lower_is_better("market_per_slot_micros"), Some(true));
        assert_eq!(lower_is_better("slot_micros"), Some(true));
        assert_eq!(lower_is_better("market_per_slot_per_edp_nanos"), Some(true));
        assert_eq!(lower_is_better("epoch_wall_millis"), Some(true));
        assert_eq!(lower_is_better("init_millis"), Some(true));
        assert_eq!(lower_is_better("reassoc_millis"), Some(true));
        assert_eq!(lower_is_better("advance_millis"), Some(true));
        // Only the channel sweep's `_millis` columns are gated; its
        // per-requester rates stay informational.
        assert_eq!(lower_is_better("assoc_micros_per_requester"), None);
        assert_eq!(lower_is_better("trade_ns_per_requester"), None);
        assert_eq!(lower_is_better("p99_micros"), Some(true));
        assert_eq!(lower_is_better("stream_frames_qps"), Some(false));
        assert_eq!(lower_is_better("speedup"), Some(false));
        assert_eq!(lower_is_better("warm_speedup"), Some(false));
        assert_eq!(lower_is_better("picard_iterations"), Some(true));
        assert_eq!(lower_is_better("warm_picard_iterations"), Some(true));
        assert_eq!(lower_is_better("m"), None);
        // Only the `_iterations` suffix is a gated metric; a bare
        // `iterations` count (e.g. an ablation's sweep axis) stays
        // informational.
        assert_eq!(lower_is_better("iterations"), None);
        assert_eq!(lower_is_better("steps"), None);
        // The serve sweep's absolute rates and percentile tails are
        // deliberately informational: loopback microbenchmarks flap far
        // past any usable tolerance across runs and runners, so its gate
        // rides on the `speedup` ratio columns instead.
        assert_eq!(lower_is_better("queries_per_sec"), None);
        assert_eq!(lower_is_better("slotbatch_points_per_sec"), None);
        assert_eq!(lower_is_better("p99_us"), None);
        assert_eq!(lower_is_better("open_p50_us"), None);
    }

    #[test]
    fn matched_within_tolerance_passes() {
        let base = report(r#"{"m":1000,"requesters":300,"init_millis":100.0}"#);
        let fresh = report(r#"{"m":1000,"requesters":300,"init_millis":115.0}"#);
        let (rows, skipped) = compare(&base, &fresh, 0.2);
        assert!(skipped.is_empty());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].status, Status::Ok);
    }

    #[test]
    fn slower_time_past_tolerance_regresses() {
        let base = report(r#"{"m":1000,"requesters":300,"reassoc_millis":100.0}"#);
        let fresh = report(r#"{"m":1000,"requesters":300,"reassoc_millis":130.0}"#);
        let (rows, _) = compare(&base, &fresh, 0.2);
        assert_eq!(rows[0].status, Status::Regression);
        assert!((rows[0].delta - 0.3).abs() < 1e-12);
    }

    #[test]
    fn work_counters_are_gated_exactly_in_both_directions() {
        let base = report(r#"{"leg":"warm_epoch","warm_picard_iterations":3,"warm_millis":7.0}"#);
        // Equal counts pass; the wall column keeps its tolerance.
        let same = report(r#"{"leg":"warm_epoch","warm_picard_iterations":3,"warm_millis":8.0}"#);
        let (rows, _) = compare(&base, &same, 0.2);
        assert!(rows.iter().all(|r| r.status != Status::Changed));
        assert!(rows.iter().all(|r| r.status != Status::Regression));
        // One more iteration fails, far inside any wall tolerance; one
        // fewer fails too, until the baseline is re-recorded.
        for fresh_count in [4, 2] {
            let fresh = report(&format!(
                r#"{{"leg":"warm_epoch","warm_picard_iterations":{fresh_count},"warm_millis":7.0}}"#
            ));
            let (rows, _) = compare(&base, &fresh, 10.0);
            let counter = rows
                .iter()
                .find(|r| r.metric == "warm_picard_iterations")
                .expect("counter row");
            assert_eq!(counter.status, Status::Changed, "{fresh_count} iterations");
        }
    }

    #[test]
    fn lower_speedup_regresses_higher_passes() {
        let base = report(r#"{"kernel":"fpk","speedup":2.5}"#);
        let slower = report(r#"{"kernel":"fpk","speedup":1.5}"#);
        let (rows, _) = compare(&base, &slower, 0.2);
        assert_eq!(rows[0].status, Status::Regression);
        let faster = report(r#"{"kernel":"fpk","speedup":3.0}"#);
        let (rows, _) = compare(&base, &faster, 0.2);
        assert_eq!(rows[0].status, Status::Improved);
    }

    #[test]
    fn reduced_fresh_sweep_skips_unmatched_baseline_sizes() {
        let base = report(
            r#"{"m":100,"market_per_slot_micros":9.5},
               {"m":100000,"market_per_slot_micros":900.0}"#,
        );
        let fresh = report(r#"{"m":100,"market_per_slot_micros":10.0}"#);
        let (rows, skipped) = compare(&base, &fresh, 0.2);
        assert_eq!(rows.len(), 1);
        assert_eq!(skipped, vec!["m=100000".to_string()]);
    }

    #[test]
    fn identity_uses_strings_and_size_fields_only() {
        let s =
            parse(r#"{"kernel":"fpk","path":"batched","nx":24,"ny":48,"steps":347,"speedup":2.2}"#)
                .unwrap();
        assert_eq!(identity(&s), "kernel=fpk path=batched nx=24 ny=48");
    }

    #[test]
    fn serve_sweep_rows_are_keyed_by_mode_connections_and_pairs() {
        let s = parse(
            r#"{"mode":"slot_batch","connections":4,"pairs":256,"frames":1600,
                "slotbatch_points_per_sec":1.0e6,"speedup":9.0}"#,
        )
        .unwrap();
        assert_eq!(identity(&s), "mode=slot_batch connections=4 pairs=256");
        let base = report(r#"{"mode":"slot_batch","connections":4,"pairs":256,"speedup":9.0}"#);
        let fresh = report(
            r#"{"mode":"slot_batch","connections":4,"pairs":256,"speedup":4.0},
               {"mode":"slot_batch","connections":8,"pairs":256,"speedup":9.0}"#,
        );
        let (rows, skipped) = compare(&base, &fresh, 0.2);
        assert!(skipped.is_empty());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].status, Status::Regression);
    }

    #[test]
    fn fresh_extra_samples_are_ignored() {
        let base = report(r#"{"kernel":"fpk","speedup":2.0}"#);
        let fresh = report(r#"{"kernel":"fpk","speedup":2.1},{"kernel":"new","speedup":0.1}"#);
        let (rows, skipped) = compare(&base, &fresh, 0.2);
        assert_eq!(rows.len(), 1);
        assert!(skipped.is_empty());
    }
}
