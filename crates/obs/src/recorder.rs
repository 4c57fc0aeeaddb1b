//! The [`Recorder`] sink trait and the [`RecorderHandle`] instrumented code
//! carries.
//!
//! The handle is the hot-path API: it owns the sequence counter and the
//! monotonic epoch, and emits fully-formed [`Event`]s into an
//! `Arc<dyn Recorder>`. A disabled handle holds no inner state at all, so
//! every emit helper is a null check followed by an early return —
//! instrumentation can stay in release builds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{Event, Kind, Value};

/// A sink for telemetry events.
///
/// Implementations must be cheap enough to sit on solver hot paths when
/// enabled, and must never panic: telemetry failure must not take down a
/// numerical run (the built-in [`crate::JsonlSink`] swallows I/O errors).
pub trait Recorder: Send + Sync {
    /// Whether this sink wants events at all. A handle built over a sink
    /// returning `false` degenerates to a no-op handle, so instrumented
    /// code pays one null check per site. Defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one event. Calls are serialized by the owning handle, in
    /// strictly increasing `seq` order.
    fn record(&self, event: Event);

    /// Flush buffered output, if any. Defaults to a no-op.
    fn flush(&self) {}
}

struct Inner {
    sink: Arc<dyn Recorder>,
    epoch: Instant,
    /// Next sequence number. A mutex (not an atomic) so that `seq`
    /// assignment and `sink.record` happen atomically together: concurrent
    /// emitters then hit the sink in `seq` order, which the schema
    /// validator checks.
    next_seq: Mutex<u64>,
    next_span: AtomicU64,
}

impl Inner {
    /// Stamp `event` with the next `seq` and the current `t_nanos`, then
    /// record it. Callers hold the `next_seq` lock: stamping the clock
    /// under it keeps `t_nanos` monotone in `seq` with concurrent
    /// emitters, and recording under it keeps sink order == seq order.
    fn stamp_and_record(&self, next_seq: &mut u64, mut event: Event) {
        event.seq = *next_seq;
        event.t_nanos = self.epoch.elapsed().as_nanos() as u64;
        *next_seq += 1;
        self.sink.record(event);
    }
}

/// A cheap, cloneable handle through which instrumented code emits events.
///
/// Clones share the sequence counter, the span-id counter and the epoch,
/// so events from every clone interleave into one strictly-ordered stream.
/// The disabled handle ([`RecorderHandle::noop`], also [`Default`]) holds
/// nothing and every method on it returns immediately.
#[derive(Clone, Default)]
pub struct RecorderHandle {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecorderHandle")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl RecorderHandle {
    /// Build a handle over a sink. If the sink reports
    /// [`Recorder::enabled`] `== false`, the returned handle is the no-op
    /// handle and the sink is dropped.
    pub fn new<R: Recorder + 'static>(sink: Arc<R>) -> Self {
        Self::from_dyn(sink)
    }

    /// [`RecorderHandle::new`] for an already-erased sink.
    pub fn from_dyn(sink: Arc<dyn Recorder>) -> Self {
        if !sink.enabled() {
            return Self::noop();
        }
        Self {
            inner: Some(Arc::new(Inner {
                sink,
                epoch: Instant::now(),
                next_seq: Mutex::new(0),
                next_span: AtomicU64::new(0),
            })),
        }
    }

    /// The disabled handle: records nothing, costs one null check per call.
    pub fn noop() -> Self {
        Self { inner: None }
    }

    /// Whether events are being recorded. Call sites computing *derived*
    /// quantities purely for telemetry (mass integrals, non-finite scans)
    /// must guard that work behind this check so the disabled path stays
    /// free of it.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn emit(
        &self,
        kind: Kind,
        name: &'static str,
        span: Option<u64>,
        nanos: Option<u64>,
        value: Option<Value>,
        fields: &[(&'static str, Value)],
    ) {
        let Some(inner) = &self.inner else { return };
        let mut next_seq = inner.next_seq.lock().unwrap_or_else(|e| e.into_inner());
        let event = Event {
            seq: 0,
            t_nanos: 0,
            kind,
            name,
            span,
            nanos,
            value,
            fields: fields.to_vec(),
        };
        inner.stamp_and_record(&mut next_seq, event);
    }

    /// Re-emit `events` recorded on another handle (typically a per-task
    /// buffer over a [`crate::MemorySink`]) into this stream, in order and
    /// as one uninterrupted run: `seq` and `t_nanos` are re-stamped here,
    /// span ids are remapped to fresh ids of this handle, and each span's
    /// measured `nanos` is kept. A balanced buffer therefore nests inside
    /// whatever span is open here, however the buffers were produced.
    pub fn forward(&self, events: Vec<Event>) {
        let Some(inner) = &self.inner else { return };
        let mut ids = HashMap::new();
        let mut next_seq = inner.next_seq.lock().unwrap_or_else(|e| e.into_inner());
        for mut event in events {
            event.span = event.span.map(|old| {
                *ids.entry(old)
                    .or_insert_with(|| inner.next_span.fetch_add(1, Ordering::Relaxed))
            });
            inner.stamp_and_record(&mut next_seq, event);
        }
    }

    /// Emit a point event carrying only `fields`.
    #[inline]
    pub fn event(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        if self.inner.is_none() {
            return;
        }
        self.emit(Kind::Event, name, None, None, None, fields);
    }

    /// Emit an integer sample.
    #[inline]
    pub fn counter(&self, name: &'static str, value: u64, fields: &[(&'static str, Value)]) {
        if self.inner.is_none() {
            return;
        }
        self.emit(
            Kind::Counter,
            name,
            None,
            None,
            Some(Value::U64(value)),
            fields,
        );
    }

    /// Emit a float sample.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64, fields: &[(&'static str, Value)]) {
        if self.inner.is_none() {
            return;
        }
        self.emit(
            Kind::Gauge,
            name,
            None,
            None,
            Some(Value::F64(value)),
            fields,
        );
    }

    /// Open a span. The returned guard emits `span_close` with the
    /// monotonic duration when [`Span::close`]d (or dropped).
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_with(name, &[])
    }

    /// [`RecorderHandle::span`] with fields attached to the `span_open`
    /// record.
    pub fn span_with(&self, name: &'static str, fields: &[(&'static str, Value)]) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                handle: Self::noop(),
                name,
                id: 0,
                start: None,
                closed: true,
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        self.emit(Kind::SpanOpen, name, Some(id), None, None, fields);
        Span {
            handle: self.clone(),
            name,
            id,
            start: Some(Instant::now()),
            closed: false,
        }
    }

    /// Flush the underlying sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

/// An open span; closing it (explicitly or by drop) emits `span_close`
/// with the span's wall-clock duration in nanoseconds.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    handle: RecorderHandle,
    name: &'static str,
    id: u64,
    start: Option<Instant>,
    closed: bool,
}

impl Span {
    /// Close the span, attaching `fields` to the `span_close` record.
    pub fn close(mut self, fields: &[(&'static str, Value)]) {
        self.finish(fields);
    }

    fn finish(&mut self, fields: &[(&'static str, Value)]) {
        if self.closed {
            return;
        }
        self.closed = true;
        let nanos = self
            .start
            .map(|s| s.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        self.handle.emit(
            Kind::SpanClose,
            self.name,
            Some(self.id),
            Some(nanos),
            None,
            fields,
        );
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish(&[]);
    }
}

/// A fire-once latch for sentinel events (e.g. "first non-finite value in
/// this field"), so a poisoned grid emits one diagnostic instead of one
/// per cell per step.
///
/// `Clone` yields a *fresh, unfired* flag: cloning a solver re-arms its
/// sentinels, which is what a new solve wants.
#[derive(Debug, Default)]
pub struct OnceFlag(AtomicBool);

impl OnceFlag {
    /// A new, unfired flag.
    pub const fn new() -> Self {
        Self(AtomicBool::new(false))
    }

    /// Returns `true` exactly once across all callers; `false` after.
    #[inline]
    pub fn fire(&self) -> bool {
        !self.0.swap(true, Ordering::Relaxed)
    }

    /// Whether the flag has fired.
    pub fn fired(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Re-arm the flag (e.g. when a solver is reused for a fresh solve).
    pub fn reset(&self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

impl Clone for OnceFlag {
    fn clone(&self) -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::{MemorySink, Noop};

    #[test]
    fn disabled_handle_emits_nothing_and_spans_are_inert() {
        let rec = RecorderHandle::noop();
        assert!(!rec.enabled());
        rec.event("x", &[]);
        rec.counter("y", 1, &[]);
        rec.gauge("z", 1.0, &[]);
        let span = rec.span("s");
        span.close(&[("k", 1u64.into())]);
        rec.flush();
        // A sink reporting enabled() == false degrades to the same thing.
        let rec = RecorderHandle::new(Arc::new(Noop));
        assert!(!rec.enabled());
    }

    #[test]
    fn sequence_numbers_are_contiguous_from_zero() {
        let sink = Arc::new(MemorySink::new());
        let rec = RecorderHandle::new(sink.clone());
        rec.event("a", &[]);
        rec.counter("b", 2, &[]);
        rec.gauge("c", 0.5, &[]);
        let events = sink.events();
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(events.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos));
    }

    #[test]
    fn clones_share_one_ordered_stream() {
        let sink = Arc::new(MemorySink::new());
        let rec = RecorderHandle::new(sink.clone());
        let clone = rec.clone();
        rec.event("from_original", &[]);
        clone.event("from_clone", &[]);
        rec.event("from_original", &[]);
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    /// Regression: `t_nanos` must be stamped under the seq lock. Sampling
    /// the clock before acquiring it lets a thread that read the clock
    /// first take the lock second, so `t_nanos` ran backwards relative to
    /// `seq` under concurrent emitters (caught by `validate_telemetry` on
    /// a multi-worker `mfgcp serve` stream).
    #[test]
    fn concurrent_emitters_keep_t_nanos_monotone_in_seq_order() {
        let sink = Arc::new(MemorySink::new());
        let rec = RecorderHandle::new(sink.clone());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for _ in 0..500 {
                        rec.counter("hammer", 1, &[]);
                    }
                });
            }
        });
        let events = sink.events();
        assert_eq!(events.len(), 2000);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq, "seq order broken");
            assert!(
                w[0].t_nanos <= w[1].t_nanos,
                "t_nanos went backwards: {} after {} (seq {} -> {})",
                w[1].t_nanos,
                w[0].t_nanos,
                w[0].seq,
                w[1].seq
            );
        }
    }

    #[test]
    fn span_close_carries_duration_and_matching_id() {
        let sink = Arc::new(MemorySink::new());
        let rec = RecorderHandle::new(sink.clone());
        let outer = rec.span("outer");
        let inner = rec.span_with("inner", &[("depth", 1u64.into())]);
        inner.close(&[]);
        outer.close(&[("ok", true.into())]);
        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, Kind::SpanOpen);
        assert_eq!(events[1].field("depth"), Some(&Value::U64(1)));
        // inner closes before outer; ids pair up open/close.
        assert_eq!(events[2].span, events[1].span);
        assert_eq!(events[3].span, events[0].span);
        assert!(events[2].nanos.is_some());
        assert_eq!(events[3].field("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn forwarded_buffers_nest_are_restamped_and_keep_durations() {
        let buffered = |tag: u64| {
            let sink = Arc::new(MemorySink::new());
            let rec = RecorderHandle::new(sink.clone());
            let solve = rec.span_with("solve", &[("content", tag.into())]);
            rec.span("hjb").close(&[]);
            rec.gauge("residual", 0.5, &[]);
            solve.close(&[]);
            sink.events()
        };
        let (a, b) = (buffered(0), buffered(1));
        let sink = Arc::new(MemorySink::new());
        let rec = RecorderHandle::new(sink.clone());
        let outer = rec.span("epoch");
        rec.forward(a.clone());
        rec.forward(b.clone());
        outer.close(&[]);
        RecorderHandle::noop().forward(a.clone());

        let events = sink.events();
        let text: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        assert_eq!(crate::schema::validate_str(&text).unwrap(), events.len());
        assert_eq!(events.len(), 2 + a.len() + b.len());
        for (i, w) in events.windows(2).enumerate() {
            assert_eq!(w[1].seq, w[0].seq + 1, "seq gap at {i}");
            assert!(
                w[0].t_nanos <= w[1].t_nanos,
                "t_nanos went backwards at {i}"
            );
        }
        // Buffers land in call order, each span keeps its measured
        // duration, and every span id is fresh in the merged stream.
        let forwarded = &events[1..events.len() - 1];
        for (got, sent) in forwarded.iter().zip(a.iter().chain(&b)) {
            assert_eq!((got.kind, got.name), (sent.kind, sent.name));
            assert_eq!(got.nanos, sent.nanos);
            assert_eq!(got.fields, sent.fields);
        }
        let mut opened: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == Kind::SpanOpen)
            .filter_map(|e| e.span)
            .collect();
        let n_open = opened.len();
        opened.sort_unstable();
        opened.dedup();
        assert_eq!(opened.len(), n_open, "span ids must be unique");
    }

    #[test]
    fn dropping_an_unclosed_span_still_closes_it() {
        let sink = Arc::new(MemorySink::new());
        let rec = RecorderHandle::new(sink.clone());
        {
            let _span = rec.span("scope");
        }
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].kind, Kind::SpanClose);
        assert_eq!(events[1].span, events[0].span);
    }

    #[test]
    fn once_flag_fires_exactly_once_and_clones_rearm() {
        let flag = OnceFlag::new();
        assert!(flag.fire());
        assert!(!flag.fire());
        assert!(flag.fired());
        let fresh = flag.clone();
        assert!(!fresh.fired());
        assert!(fresh.fire());
        flag.reset();
        assert!(flag.fire());
    }
}
