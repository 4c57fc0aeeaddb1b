//! Reading the telemetry the program already emits (`solver.*` spans,
//! `sim.prepare_epoch`, `market.slot`, `serve.*`) out of a
//! [`MemorySink`], for the traced pass.

use std::sync::Arc;

use mfgcp_obs::{Event, Kind, MemorySink, RecorderHandle, Value};

/// A recorder that keeps every event in memory, and the handle to read
/// them back.
pub fn memory_recorder() -> (RecorderHandle, Arc<MemorySink>) {
    let sink = Arc::new(MemorySink::new());
    (RecorderHandle::new(sink.clone()), sink)
}

/// The events one traced run recorded.
pub struct Digest {
    events: Vec<Event>,
}

impl Digest {
    /// Snapshot the sink.
    pub fn of(sink: &MemorySink) -> Self {
        Self {
            events: sink.events(),
        }
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    fn named<'a>(&'a self, kind: Kind, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events
            .iter()
            .filter(move |e| e.kind == kind && e.name == name)
    }

    /// Durations (ms) of every closed span called `name`.
    pub fn span_ms(&self, name: &str) -> Vec<f64> {
        self.named(Kind::SpanClose, name)
            .filter_map(|e| e.nanos)
            .map(|n| n as f64 / 1e6)
            .collect()
    }

    /// A numeric field of every closed span called `name`.
    pub fn span_field(&self, name: &str, field: &str) -> Vec<f64> {
        self.field_of(Kind::SpanClose, name, field)
    }

    /// A numeric field of every point event called `name`.
    pub fn event_field(&self, name: &str, field: &str) -> Vec<f64> {
        self.field_of(Kind::Event, name, field)
    }

    /// A numeric field of every span opened as `name`.
    pub fn open_field(&self, name: &str, field: &str) -> Vec<f64> {
        self.field_of(Kind::SpanOpen, name, field)
    }

    /// Values of every gauge called `name`.
    pub fn gauges(&self, name: &str) -> Vec<f64> {
        self.named(Kind::Gauge, name)
            .filter_map(|e| e.value.as_ref().and_then(number))
            .collect()
    }

    fn field_of(&self, kind: Kind, name: &str, field: &str) -> Vec<f64> {
        self.named(kind, name)
            .filter_map(|e| e.field(field).and_then(number))
            .collect()
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        Value::F64(x) => Some(*x),
        Value::Bool(_) | Value::Str(_) => None,
    }
}
