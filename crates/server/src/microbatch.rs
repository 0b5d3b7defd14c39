//! Adaptive micro-batching: coalesce concurrent *independent* single-sample
//! requests into one `classify_batch` call.
//!
//! A batch shares its predicate evaluation and one worker hand-off across
//! its samples, but only clients that already hold many samples can use
//! `ClassifyBatch` frames. Under concurrent single-sample traffic the
//! server itself holds the batch: requests admitted by the event loop queue
//! here and are flushed to the worker pool when either threshold trips —
//!
//! * **size**: `flush_samples` samples are pending, or
//! * **time**: `flush_wait` has elapsed since the oldest pending sample
//!   was enqueued (the latency budget a lone request pays waiting for
//!   company).
//!
//! A flush groups pending samples by *resolved model handle* — requests
//! routed to different models (or to the same name across a hot-swap)
//! never share a kernel call, so every response is produced by exactly the
//! engine that request resolved, bit-identical to a per-request
//! `classify`. Admission is bounded: `queue_depth` caps samples that are
//! queued or in flight, and the event loop answers everything beyond it
//! with a structured overload error instead of queueing without bound.
//!
//! This type is pure policy — no I/O, no threads — so the flush edge cases
//! (timer firing with an empty queue, size trip exactly at the threshold,
//! admission exhaustion and release) are unit-tested deterministically
//! below.

use crate::registry::ModelHandle;
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for the event loop's micro-batcher (the `boltd`
/// `--mb-*` flags).
#[derive(Clone, Debug)]
pub struct MicroBatchConfig {
    /// Coalesce at all? `false` dispatches every request to the worker
    /// pool immediately (the event loop stays non-blocking either way).
    pub enabled: bool,
    /// Flush when this many samples are pending.
    pub flush_samples: usize,
    /// Flush when the oldest pending sample has waited this long.
    pub flush_wait: Duration,
    /// Most samples admitted at once (pending + in flight); everything
    /// beyond answers a structured overload error.
    pub queue_depth: usize,
}

impl Default for MicroBatchConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            // The batch kernel's measured sweet spot starts around 64.
            flush_samples: 64,
            // Sub-millisecond latency budget; the poller's millisecond
            // timer granularity rounds the effective wait up to ~1 ms
            // under trickle traffic.
            flush_wait: Duration::from_micros(200),
            queue_depth: 8192,
        }
    }
}

/// One admitted single-sample request, waiting for a flush.
pub(crate) struct QueuedSample {
    /// Connection token (slab index + generation) the response goes to.
    pub token: u64,
    /// Response slot on that connection, for in-order delivery.
    pub slot: u64,
    /// Whether the response must use v2 framing.
    pub v2: bool,
    /// The sample.
    pub features: Vec<f32>,
}

/// A flushed group: samples that resolved to one model handle, classified
/// by one `classify_batch` call in enqueue order.
pub(crate) struct FlushGroup {
    /// The resolved model (engine + stats slot).
    pub model: Arc<ModelHandle>,
    /// The samples, in enqueue order.
    pub items: Vec<QueuedSample>,
}

/// A finished unit of work headed back to the event loop.
pub(crate) struct Completion {
    /// Connection token the frame belongs to.
    pub token: u64,
    /// Response slot on that connection.
    pub slot: u64,
    /// The encoded response frame.
    pub frame: Bytes,
    /// How many admitted samples this completion releases.
    pub samples: usize,
}

/// The flush-policy state machine. Owned by the event-loop thread;
/// everything here is plain sequential code.
pub(crate) struct MicroBatcher {
    cfg: MicroBatchConfig,
    /// Pending samples, each with its resolved handle.
    pending: Vec<(Arc<ModelHandle>, QueuedSample)>,
    /// When the oldest pending sample was enqueued; `None` when empty, so
    /// an expired timer with nothing queued is a no-op by construction.
    since: Option<Instant>,
    /// Samples admitted (pending + in flight), bounded by `queue_depth`.
    admitted: usize,
}

impl MicroBatcher {
    pub(crate) fn new(cfg: MicroBatchConfig) -> Self {
        let cfg = MicroBatchConfig {
            flush_samples: cfg.flush_samples.max(1),
            queue_depth: cfg.queue_depth.max(1),
            ..cfg
        };
        Self {
            cfg,
            pending: Vec::new(),
            since: None,
            admitted: 0,
        }
    }

    /// Tries to reserve room for `n` more samples. `false` means the
    /// caller must shed the request with an overload error.
    pub(crate) fn admit(&mut self, n: usize) -> bool {
        if self.admitted.saturating_add(n) > self.cfg.queue_depth {
            return false;
        }
        self.admitted += n;
        true
    }

    /// Releases `n` admitted samples (their completions were delivered,
    /// or their flush group could not be dispatched).
    pub(crate) fn release(&mut self, n: usize) {
        self.admitted = self.admitted.saturating_sub(n);
    }

    /// Samples currently admitted (pending + in flight).
    #[cfg(test)]
    pub(crate) fn admitted(&self) -> usize {
        self.admitted
    }

    /// The size threshold that trips a flush — also the bar a
    /// client-submitted batch must clear to count as "already
    /// kernel-sized" for the event loop's same-thread fast path.
    pub(crate) fn flush_samples(&self) -> usize {
        self.cfg.flush_samples
    }

    /// Queues one *admitted* sample. Returns flush groups to dispatch when
    /// the size threshold trips (or immediately when coalescing is
    /// disabled); an empty vec means the sample is waiting on the timer.
    pub(crate) fn enqueue(
        &mut self,
        model: Arc<ModelHandle>,
        sample: QueuedSample,
        now: Instant,
    ) -> Vec<FlushGroup> {
        if !self.cfg.enabled {
            return vec![FlushGroup {
                model,
                items: vec![sample],
            }];
        }
        if self.pending.is_empty() {
            self.since = Some(now);
        }
        self.pending.push((model, sample));
        if self.pending.len() >= self.cfg.flush_samples {
            self.flush_all()
        } else {
            Vec::new()
        }
    }

    /// When the pending queue must be flushed at the latest, or `None`
    /// when nothing is pending (no timer armed — the empty-queue case).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.since.map(|since| since + self.cfg.flush_wait)
    }

    /// Flushes if the time threshold has expired. With an empty queue this
    /// is always a no-op, so a stray timer wakeup costs nothing and sends
    /// nothing.
    pub(crate) fn flush_due(&mut self, now: Instant) -> Vec<FlushGroup> {
        match self.deadline() {
            Some(deadline) if now >= deadline => self.flush_all(),
            _ => Vec::new(),
        }
    }

    /// Unconditionally flushes everything pending, grouped by resolved
    /// model handle with enqueue order preserved inside each group.
    pub(crate) fn flush_all(&mut self) -> Vec<FlushGroup> {
        self.since = None;
        let mut groups: Vec<FlushGroup> = Vec::new();
        for (model, sample) in self.pending.drain(..) {
            match groups.iter_mut().find(|g| Arc::ptr_eq(&g.model, &model)) {
                Some(group) => group.items.push(sample),
                None => groups.push(FlushGroup {
                    model,
                    items: vec![sample],
                }),
            }
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use bolt_baselines::InferenceEngine;

    struct FixedEngine(u32);
    impl InferenceEngine for FixedEngine {
        fn name(&self) -> &'static str {
            "Fixed"
        }
        fn classify(&self, _sample: &[f32]) -> u32 {
            self.0
        }
    }

    fn handle(registry: &ModelRegistry, name: &str, class: u32) -> Arc<ModelHandle> {
        // Register the first time, hot-swap thereafter.
        if registry
            .register(name, Arc::new(FixedEngine(class)))
            .is_err()
        {
            registry
                .swap(name, Arc::new(FixedEngine(class)))
                .expect("swaps");
        }
        registry.resolve(Some(name)).expect("registered")
    }

    fn sample(slot: u64) -> QueuedSample {
        QueuedSample {
            token: 1,
            slot,
            v2: false,
            features: vec![slot as f32],
        }
    }

    #[test]
    fn timer_with_empty_queue_is_a_noop() {
        let mut b = MicroBatcher::new(MicroBatchConfig::default());
        // No samples ⇒ no deadline armed, and a (stray) flush attempt at
        // any time produces no groups and panics nothing.
        assert!(b.deadline().is_none());
        assert!(b.flush_due(Instant::now()).is_empty());
        assert!(b
            .flush_due(Instant::now() + Duration::from_secs(3600))
            .is_empty());
        assert!(b.flush_all().is_empty());
    }

    #[test]
    fn size_threshold_flushes_exactly_at_n() {
        let registry = ModelRegistry::new();
        let model = handle(&registry, "m", 0);
        let mut b = MicroBatcher::new(MicroBatchConfig {
            flush_samples: 3,
            flush_wait: Duration::from_secs(3600), // timer can't fire
            ..MicroBatchConfig::default()
        });
        let now = Instant::now();
        assert!(b.admit(3));
        assert!(b.enqueue(Arc::clone(&model), sample(0), now).is_empty());
        assert!(b.enqueue(Arc::clone(&model), sample(1), now).is_empty());
        let groups = b.enqueue(Arc::clone(&model), sample(2), now);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].items.len(), 3);
        // Order preserved within the group.
        let slots: Vec<u64> = groups[0].items.iter().map(|s| s.slot).collect();
        assert_eq!(slots, [0, 1, 2]);
        // Queue drained; timer disarmed.
        assert!(b.deadline().is_none());
    }

    #[test]
    fn time_threshold_flushes_after_the_wait() {
        let registry = ModelRegistry::new();
        let model = handle(&registry, "m", 0);
        let mut b = MicroBatcher::new(MicroBatchConfig {
            flush_samples: 1000,
            flush_wait: Duration::from_millis(5),
            ..MicroBatchConfig::default()
        });
        let t0 = Instant::now();
        assert!(b.admit(1));
        assert!(b.enqueue(Arc::clone(&model), sample(0), t0).is_empty());
        let deadline = b.deadline().expect("timer armed");
        assert_eq!(deadline, t0 + Duration::from_millis(5));
        // Before the deadline: nothing.
        assert!(b.flush_due(t0 + Duration::from_millis(4)).is_empty());
        // At/after the deadline: the group comes out and the timer clears.
        let groups = b.flush_due(t0 + Duration::from_millis(5));
        assert_eq!(groups.len(), 1);
        assert!(b.deadline().is_none());
        assert!(b.flush_due(t0 + Duration::from_secs(1)).is_empty());
    }

    #[test]
    fn deadline_tracks_the_oldest_sample_not_the_newest() {
        let registry = ModelRegistry::new();
        let model = handle(&registry, "m", 0);
        let mut b = MicroBatcher::new(MicroBatchConfig {
            flush_samples: 1000,
            flush_wait: Duration::from_millis(10),
            ..MicroBatchConfig::default()
        });
        let t0 = Instant::now();
        assert!(b.admit(2));
        let _ = b.enqueue(Arc::clone(&model), sample(0), t0);
        // A later enqueue must not push the deadline out.
        let _ = b.enqueue(Arc::clone(&model), sample(1), t0 + Duration::from_millis(8));
        assert_eq!(b.deadline(), Some(t0 + Duration::from_millis(10)));
    }

    #[test]
    fn disabled_coalescing_dispatches_singletons_immediately() {
        let registry = ModelRegistry::new();
        let model = handle(&registry, "m", 0);
        let mut b = MicroBatcher::new(MicroBatchConfig {
            enabled: false,
            ..MicroBatchConfig::default()
        });
        assert!(b.admit(1));
        let groups = b.enqueue(Arc::clone(&model), sample(0), Instant::now());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].items.len(), 1);
        assert!(b.deadline().is_none());
    }

    #[test]
    fn admission_is_bounded_and_released() {
        let mut b = MicroBatcher::new(MicroBatchConfig {
            queue_depth: 4,
            ..MicroBatchConfig::default()
        });
        assert!(b.admit(3));
        assert!(b.admit(1));
        // Full: both a single and a batch bounce.
        assert!(!b.admit(1));
        assert!(!b.admit(100));
        assert_eq!(b.admitted(), 4);
        b.release(2);
        assert!(b.admit(2));
        // Release never underflows.
        b.release(1000);
        assert_eq!(b.admitted(), 0);
    }

    #[test]
    fn flush_groups_by_resolved_handle_preserving_order() {
        let registry = ModelRegistry::new();
        let a = handle(&registry, "a", 0);
        let b_model = handle(&registry, "b", 1);
        let mut b = MicroBatcher::new(MicroBatchConfig {
            flush_samples: 1000,
            ..MicroBatchConfig::default()
        });
        let now = Instant::now();
        assert!(b.admit(5));
        let _ = b.enqueue(Arc::clone(&a), sample(0), now);
        let _ = b.enqueue(Arc::clone(&b_model), sample(1), now);
        let _ = b.enqueue(Arc::clone(&a), sample(2), now);
        let _ = b.enqueue(Arc::clone(&b_model), sample(3), now);
        let _ = b.enqueue(Arc::clone(&a), sample(4), now);
        let groups = b.flush_all();
        assert_eq!(groups.len(), 2);
        let slots = |g: &FlushGroup| g.items.iter().map(|s| s.slot).collect::<Vec<_>>();
        assert!(Arc::ptr_eq(&groups[0].model, &a));
        assert_eq!(slots(&groups[0]), [0, 2, 4]);
        assert!(Arc::ptr_eq(&groups[1].model, &b_model));
        assert_eq!(slots(&groups[1]), [1, 3]);
    }

    #[test]
    fn hot_swap_mid_queue_splits_the_group() {
        // Two resolves of one *name* across a swap yield different handles;
        // each request must be classified by the engine it resolved.
        let registry = ModelRegistry::new();
        let before = handle(&registry, "m", 0);
        let after = handle(&registry, "m", 1); // re-register = hot swap
        assert!(!Arc::ptr_eq(&before, &after));
        let mut b = MicroBatcher::new(MicroBatchConfig {
            flush_samples: 1000,
            ..MicroBatchConfig::default()
        });
        let now = Instant::now();
        assert!(b.admit(2));
        let _ = b.enqueue(before, sample(0), now);
        let _ = b.enqueue(after, sample(1), now);
        let groups = b.flush_all();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].model.engine().classify(&[0.0]), 0);
        assert_eq!(groups[1].model.engine().classify(&[0.0]), 1);
    }
}
