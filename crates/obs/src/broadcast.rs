//! Bounded, drop-counting fan-out of live telemetry to subscribers.
//!
//! The control plane (`mfgcp-ctl`) needs the event stream *while the run
//! is alive*, not after it lands on disk. [`BroadcastSink`] is a
//! [`Recorder`] that forwards every event to an optional inner sink (so
//! `--telemetry FILE` keeps working unchanged) and offers each event to
//! every live [`Subscription`] whose [`SubscriptionFilter`] matches the
//! event name.
//!
//! # Backpressure and drop semantics
//!
//! Subscriber queues are bounded and the producer **never blocks**: the
//! recorder runs inside the simulation engine, and a slow observer must
//! not change *when* slots execute any more than a fast one does. When a
//! subscriber's queue is full the incoming event is dropped for that
//! subscriber and its `dropped` counter is bumped; the invariant
//! `enqueued + dropped == matched` holds exactly per subscriber, which is
//! what the parity test audits. Because events keep their recorder-level
//! `seq`, a consumer sees a strictly increasing (possibly gapped)
//! sequence — gaps are the drops, and the JSONL schema validator accepts
//! them.
//!
//! The sink always reports [`Recorder::enabled`] even with zero
//! subscribers: subscribers attach at any time, and the whole point of
//! `--observe` is that the stream is warm when they do. With no
//! subscribers a `record` call is one mutex lock on an empty list.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::event::Event;
use crate::recorder::Recorder;

/// Name-prefix filter selecting which series a subscriber receives.
///
/// An empty prefix list matches everything. A prefix matches a name when
/// the name starts with it, so `"net.shard."` selects the three shard
/// gauges and `"market.slot"` selects exactly that series (no other
/// series shares the prefix).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubscriptionFilter {
    prefixes: Vec<String>,
}

impl SubscriptionFilter {
    /// Matches every event.
    pub fn all() -> Self {
        Self::default()
    }

    /// Matches events whose name starts with any of `prefixes`; an empty
    /// list matches everything.
    pub fn new(prefixes: Vec<String>) -> Self {
        SubscriptionFilter { prefixes }
    }

    /// Whether an event name passes the filter.
    pub fn matches(&self, name: &str) -> bool {
        self.prefixes.is_empty() || self.prefixes.iter().any(|p| name.starts_with(p.as_str()))
    }
}

#[derive(Debug)]
struct SubscriberInner {
    queue: Mutex<VecDeque<Event>>,
    available: Condvar,
    capacity: usize,
    filter: SubscriptionFilter,
    enqueued: AtomicU64,
    dropped: AtomicU64,
    closed: AtomicBool,
}

impl SubscriberInner {
    /// Offers one matching event; drops it (counting) when full or closed.
    fn offer(&self, event: &Event) {
        if self.closed.load(Ordering::Acquire) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let Ok(mut queue) = self.queue.lock() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if queue.len() >= self.capacity {
            drop(queue);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        queue.push_back(event.clone());
        drop(queue);
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        self.available.notify_one();
    }
}

/// Consumer handle for one subscription created by
/// [`BroadcastSink::subscribe`].
///
/// Dropping (or [`close`](Subscription::close)-ing) the handle detaches
/// the subscription; the sink prunes it on its next `record`.
#[derive(Debug)]
pub struct Subscription {
    inner: Arc<SubscriberInner>,
}

impl Subscription {
    /// Pops the oldest queued event without waiting.
    pub fn try_recv(&self) -> Option<Event> {
        self.inner.queue.lock().ok()?.pop_front()
    }

    /// Pops the oldest queued event, waiting up to `timeout` for one to
    /// arrive. Returns `None` on timeout or when the subscription closed
    /// with an empty queue.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Event> {
        let mut queue = self.inner.queue.lock().ok()?;
        if let Some(event) = queue.pop_front() {
            return Some(event);
        }
        if self.inner.closed.load(Ordering::Acquire) {
            return None;
        }
        let (mut queue, _timed_out) = self
            .inner
            .available
            .wait_timeout(queue, timeout)
            .map(|(q, t)| (q, t.timed_out()))
            .ok()?;
        queue.pop_front()
    }

    /// Events successfully enqueued for this subscriber so far.
    pub fn enqueued(&self) -> u64 {
        self.inner.enqueued.load(Ordering::Relaxed)
    }

    /// Matching events dropped because the queue was full (or the
    /// subscription already closed). `enqueued() + dropped()` equals the
    /// number of events that matched the filter since subscribing.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Detaches the subscription and wakes any blocked `recv_timeout`.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
        self.inner.available.notify_all();
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.close();
    }
}

/// A [`Recorder`] that fans events out to bounded live subscribers and
/// optionally tees to an inner sink; see the module docs for semantics.
#[derive(Default)]
pub struct BroadcastSink {
    subscribers: Mutex<Vec<Arc<SubscriberInner>>>,
    inner: Option<Arc<dyn Recorder>>,
    /// Total drops across all subscribers, for cheap status queries.
    dropped_total: AtomicU64,
    /// Total enqueues across all subscribers.
    enqueued_total: AtomicU64,
}

impl BroadcastSink {
    /// A broadcast sink with no inner sink: events reach subscribers only.
    pub fn new() -> Self {
        Self::default()
    }

    /// A broadcast sink that also forwards every event to `inner`
    /// (typically a [`crate::JsonlSink`], so `--telemetry` and
    /// `--observe` compose).
    pub fn tee(inner: Arc<dyn Recorder>) -> Self {
        BroadcastSink {
            inner: Some(inner),
            ..Self::default()
        }
    }

    /// Attaches a subscriber with a bounded queue of `capacity` events
    /// (clamped to at least 1) receiving the series selected by `filter`.
    pub fn subscribe(&self, capacity: usize, filter: SubscriptionFilter) -> Subscription {
        let inner = Arc::new(SubscriberInner {
            queue: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 4096))),
            available: Condvar::new(),
            capacity: capacity.max(1),
            filter,
            enqueued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        if let Ok(mut subs) = self.subscribers.lock() {
            subs.push(Arc::clone(&inner));
        }
        Subscription { inner }
    }

    /// Number of currently attached (not yet pruned) subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().map(|s| s.len()).unwrap_or(0)
    }

    /// Total events enqueued across all subscribers so far.
    pub fn frames_enqueued(&self) -> u64 {
        self.enqueued_total.load(Ordering::Relaxed)
    }

    /// Total matching events dropped across all subscribers so far.
    pub fn frames_dropped(&self) -> u64 {
        self.dropped_total.load(Ordering::Relaxed)
    }

    /// Closes every subscription (wakes blocked receivers) and prunes
    /// them; used at end of run so stream readers see EOF promptly.
    pub fn close_all(&self) {
        if let Ok(mut subs) = self.subscribers.lock() {
            for sub in subs.drain(..) {
                sub.closed.store(true, Ordering::Release);
                sub.available.notify_all();
            }
        }
    }
}

impl Recorder for BroadcastSink {
    fn enabled(&self) -> bool {
        // Always on: subscribers attach mid-run, and the inner tee (if
        // any) must see the full stream regardless.
        true
    }

    fn record(&self, event: Event) {
        if let Ok(mut subs) = self.subscribers.lock() {
            subs.retain(|s| !s.closed.load(Ordering::Acquire));
            for sub in subs.iter() {
                if sub.filter.matches(event.name) {
                    let before_enq = sub.enqueued.load(Ordering::Relaxed);
                    let before_drop = sub.dropped.load(Ordering::Relaxed);
                    sub.offer(&event);
                    self.enqueued_total.fetch_add(
                        sub.enqueued.load(Ordering::Relaxed) - before_enq,
                        Ordering::Relaxed,
                    );
                    self.dropped_total.fetch_add(
                        sub.dropped.load(Ordering::Relaxed) - before_drop,
                        Ordering::Relaxed,
                    );
                }
            }
        }
        if let Some(inner) = &self.inner {
            inner.record(event);
        }
    }

    fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderHandle;
    use crate::sinks::MemorySink;

    #[test]
    fn filters_match_by_prefix_and_empty_matches_all() {
        let all = SubscriptionFilter::all();
        assert!(all.matches("market.slot"));
        assert!(all.matches("anything"));
        let shard = SubscriptionFilter::new(vec!["net.shard.".into(), "market.slot".into()]);
        assert!(shard.matches("net.shard.occupancy"));
        assert!(shard.matches("market.slot"));
        assert!(!shard.matches("net.topology"));
        assert!(!shard.matches("solver.iteration"));
    }

    #[test]
    fn events_fan_out_to_matching_subscribers_only() {
        let sink = Arc::new(BroadcastSink::new());
        let rec = RecorderHandle::new(Arc::clone(&sink));
        let market = sink.subscribe(16, SubscriptionFilter::new(vec!["market.".into()]));
        let everything = sink.subscribe(16, SubscriptionFilter::all());

        rec.gauge("market.slot", 1.0, &[]);
        rec.counter("solver.iteration", 1, &[]);

        assert_eq!(market.enqueued(), 1);
        assert_eq!(market.try_recv().unwrap().name, "market.slot");
        assert!(market.try_recv().is_none());
        assert_eq!(everything.enqueued(), 2);
        assert_eq!(sink.frames_enqueued(), 3);
        assert_eq!(sink.frames_dropped(), 0);
    }

    #[test]
    fn full_queue_drops_and_accounting_is_exact() {
        let sink = Arc::new(BroadcastSink::new());
        let rec = RecorderHandle::new(Arc::clone(&sink));
        let slow = sink.subscribe(2, SubscriptionFilter::all());

        for i in 0..10u64 {
            rec.counter("market.slot", i, &[]);
        }
        assert_eq!(slow.enqueued(), 2);
        assert_eq!(slow.dropped(), 8);
        assert_eq!(slow.enqueued() + slow.dropped(), 10);
        assert_eq!(sink.frames_dropped(), 8);

        // Draining frees capacity again; seq numbers expose the gap.
        let first = slow.try_recv().unwrap();
        let second = slow.try_recv().unwrap();
        assert!(first.seq < second.seq);
        rec.counter("market.slot", 99, &[]);
        assert_eq!(slow.enqueued(), 3);
        let third = slow.try_recv().unwrap();
        assert!(second.seq < third.seq, "gapped but strictly increasing");
    }

    #[test]
    fn tee_forwards_every_event_to_the_inner_sink() {
        let memory = Arc::new(MemorySink::new());
        let sink = Arc::new(BroadcastSink::tee(Arc::clone(&memory) as Arc<dyn Recorder>));
        let rec = RecorderHandle::new(Arc::clone(&sink));
        let slow = sink.subscribe(1, SubscriptionFilter::all());
        rec.counter("a", 1, &[]);
        rec.counter("b", 2, &[]);
        // The subscriber dropped one, the tee saw both.
        assert_eq!(slow.enqueued() + slow.dropped(), 2);
        assert_eq!(memory.len(), 2);
    }

    #[test]
    fn closed_subscriptions_are_pruned_and_receivers_wake() {
        let sink = Arc::new(BroadcastSink::new());
        let rec = RecorderHandle::new(Arc::clone(&sink));
        let sub = sink.subscribe(4, SubscriptionFilter::all());
        assert_eq!(sink.subscriber_count(), 1);
        sub.close();
        assert!(sub.recv_timeout(Duration::from_millis(10)).is_none());
        rec.counter("x", 1, &[]);
        assert_eq!(sink.subscriber_count(), 0, "pruned on next record");

        let waker = sink.subscribe(4, SubscriptionFilter::all());
        let sink2 = Arc::clone(&sink);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            sink2.close_all();
        });
        // Blocks until close_all wakes it (well under the 5 s bound).
        let start = std::time::Instant::now();
        assert!(waker.recv_timeout(Duration::from_secs(5)).is_none());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "woken by close_all, not by the timeout"
        );
        assert!(waker.inner.closed.load(Ordering::Acquire));
        t.join().unwrap();
    }

    #[test]
    fn always_enabled_even_with_no_subscribers() {
        let sink = BroadcastSink::new();
        assert!(sink.enabled());
        // RecorderHandle::from_dyn drops disabled sinks; this one must
        // survive so late subscribers see the stream.
        let rec = RecorderHandle::from_dyn(Arc::new(BroadcastSink::new()) as Arc<dyn Recorder>);
        assert!(rec.enabled());
    }
}
