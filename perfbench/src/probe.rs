//! Bench-side probes around the program's two instrumentation seams.
//!
//! * [`TimedRecorder`] wraps any [`Recorder`] (an [`ObsRecorder`] in
//!   traced runs), forwards every hook to it, counts `sim_event` hooks,
//!   and every `every`-th one opens a sample that the next `sim_event`
//!   closes — the wall time of one event, handler included.
//! * [`BenchObserver`] wraps the [`QosObserver`], folds every delivery
//!   into the same FNV-1a digest `iba_harness::run_measured` computes,
//!   and (when `TIMED`) times every `every`-th forwarded delivery.
//! * [`OpClock`] stamps the wall clock on every `tick`: the sequential
//!   trace replay ticks once per applied operation, so consecutive
//!   stamps bracket one `QosManager` call each.
//!
//! None of the probes changes what the program computes: the traced
//! run's digest and event count must equal the untraced run's.
//!
//! [`ObsRecorder`]: iba_obs::ObsRecorder

use crate::stats::{Hist, FNV_OFFSET, FNV_PRIME};
use iba_obs::{Recorder, RejectKind, ServedKind};
use iba_qos::QosObserver;
use iba_sim::{DeliveryRecord, Observer};
use std::time::Instant;

/// Reads the wall clock. Every timing in the benchmark goes through
/// here, so the tree's one sanctioned clock read outside the program
/// sits in a single place.
#[inline]
#[must_use]
pub fn now() -> Instant {
    // lint: allow(no-wall-clock) -- the benchmark times the program from outside; no simulated result ever depends on the reading
    Instant::now()
}

/// Every how many `sim_event` hooks one event is timed.
pub const EVENT_SAMPLE_EVERY: u64 = 64;
/// Every how many deliveries one observer call is timed.
pub const DELIVERY_SAMPLE_EVERY: u64 = 16;

/// A forwarding recorder that counts events and samples their
/// durations and the calendar depth.
#[derive(Debug)]
pub struct TimedRecorder<R> {
    /// The wrapped recorder; every hook reaches it unchanged.
    pub inner: R,
    /// `sim_event` hooks seen.
    pub events: u64,
    /// Sampled single-event wall times, in nanoseconds.
    pub event_ns: Hist,
    /// Calendar depth at each sampled event.
    pub queue_depth: Hist,
    every: u64,
    open: Option<Instant>,
}

impl<R: Recorder> TimedRecorder<R> {
    /// Wraps `inner`, sampling one event in every `every`.
    #[must_use]
    pub fn new(inner: R, every: u64) -> Self {
        TimedRecorder {
            inner,
            events: 0,
            event_ns: Hist::default(),
            queue_depth: Hist::default(),
            every: every.max(1),
            open: None,
        }
    }
}

macro_rules! forward {
    ($( fn $name:ident(&mut self $(, $arg:ident : $ty:ty)*); )*) => {
        $(
            #[inline]
            fn $name(&mut self $(, $arg: $ty)*) {
                self.inner.$name($($arg),*);
            }
        )*
    };
}

impl<R: Recorder> Recorder for TimedRecorder<R> {
    #[inline]
    fn sim_event(&mut self, pending: u64) {
        if let Some(start) = self.open.take() {
            self.event_ns.record(start.elapsed().as_nanos() as u64);
        }
        self.inner.sim_event(pending);
        if self.events.is_multiple_of(self.every) {
            self.queue_depth.record(pending);
            self.open = Some(now());
        }
        self.events += 1;
    }

    forward! {
        fn tick(&mut self, now: u64);
        fn alloc_probe(&mut self, rejected: bool);
        fn alloc_select(&mut self, depth: u32, found: bool);
        fn arb_grant(&mut self, vl: u8, bytes: u64, served: ServedKind);
        fn arb_weight_exhausted(&mut self, vl: u8);
        fn arb_hol_stall(&mut self, vl: u8);
        fn arb_queue_depth(&mut self, packets: u64);
        fn cac_admit(&mut self, sl: u8);
        fn cac_reject(&mut self, reason: RejectKind);
        fn cac_release(&mut self);
        fn fault_injected(&mut self, code: u8, port: u16, detail: u32);
        fn fault_blocked(&mut self, vl: u8);
        fn schedule_invalidated(&mut self);
        fn schedule_compiled(&mut self);
        fn recovery_repair(&mut self, evicted: u64);
        fn recovery_reinstall(&mut self);
        fn recovery_retry(&mut self, backoff_cycles: u64);
        fn recovery_degraded(&mut self);
        fn serve_shard_admit(&mut self, shard: u8);
        fn serve_shard_reject(&mut self, shard: u8);
        fn serve_shard_rollback(&mut self, shard: u8);
        fn serve_queue_depth(&mut self, depth: u64);
        fn serve_batch_latency(&mut self, ticks: u64);
        fn serve_crash(&mut self, shard: u8);
        fn serve_journal_replay(&mut self, shard: u8, records: u64);
        fn serve_timeout(&mut self, shard: u8, backoff: u64);
        fn serve_shed(&mut self, rung: u8);
        fn request_stage(&mut self, rid: u32, stage: u8, shard: u8, path: u8);
        fn span_begin(&mut self, name: &'static str);
        fn span_end(&mut self, name: &'static str);
    }
}

/// Forwards to a [`QosObserver`] while folding each delivery into the
/// harness's delivery digest; `TIMED` adds sampled call timing.
pub struct BenchObserver<'a, const TIMED: bool> {
    inner: &'a mut QosObserver,
    /// Order-sensitive FNV-1a digest of every delivery record.
    pub digest: u64,
    /// Deliveries seen.
    pub deliveries: u64,
    /// Nanoseconds spent inside sampled `on_delivered` calls.
    pub sampled_ns: u64,
    /// Deliveries whose forwarding was timed.
    pub sampled: u64,
}

impl<'a, const TIMED: bool> BenchObserver<'a, TIMED> {
    /// Wraps `inner` with a fresh digest.
    pub fn new(inner: &'a mut QosObserver) -> Self {
        BenchObserver {
            inner,
            digest: FNV_OFFSET,
            deliveries: 0,
            sampled_ns: 0,
            sampled: 0,
        }
    }

    #[inline]
    fn fold(&mut self, v: u64) {
        self.digest = (self.digest ^ v).wrapping_mul(FNV_PRIME);
    }
}

impl<const TIMED: bool> Observer for BenchObserver<'_, TIMED> {
    #[inline]
    fn on_delivered(&mut self, rec: &DeliveryRecord) {
        self.fold(u64::from(rec.flow));
        self.fold(rec.seq);
        self.fold(u64::from(rec.src.0));
        self.fold(u64::from(rec.dst.0));
        self.fold(u64::from(rec.sl.raw()));
        self.fold(u64::from(rec.bytes));
        self.fold(rec.created);
        self.fold(rec.delivered);
        self.deliveries += 1;
        if TIMED && self.deliveries.is_multiple_of(DELIVERY_SAMPLE_EVERY) {
            let start = now();
            self.inner.on_delivered(rec);
            self.sampled_ns += start.elapsed().as_nanos() as u64;
            self.sampled += 1;
        } else {
            self.inner.on_delivered(rec);
        }
    }

    #[inline]
    fn on_generated(&mut self, flow: u32, bytes: u32, now: u64) {
        self.inner.on_generated(flow, bytes, now);
    }
}

/// Stamps the wall clock at every `tick`; every other hook is the
/// default no-op.
#[derive(Debug)]
pub struct OpClock {
    start: Instant,
    stamps: Vec<Instant>,
}

impl OpClock {
    /// A clock expecting `ops` ticks, started now.
    #[must_use]
    pub fn start(ops: usize) -> Self {
        OpClock {
            stamps: Vec::with_capacity(ops),
            start: now(),
        }
    }

    /// Wall time of each ticked operation, in nanoseconds.
    pub fn op_ns(&self) -> impl Iterator<Item = u64> + '_ {
        let mut prev = self.start;
        self.stamps.iter().map(move |&t| {
            let ns = t.duration_since(prev).as_nanos() as u64;
            prev = t;
            ns
        })
    }
}

impl Recorder for OpClock {
    #[inline]
    fn tick(&mut self, _now: u64) {
        self.stamps.push(now());
    }
}
