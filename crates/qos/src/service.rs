//! The sharded admission-control service: the paper's §5 CAC made
//! concurrent without a global lock — and without giving up the
//! workspace's byte-identical determinism contract.
//!
//! # Ownership
//!
//! [`PortTables`] is partitioned by output port: port `k` belongs to
//! shard `k.stable_code() % shards`, and each shard **exclusively
//! owns** its partition behind a bounded-channel worker thread. No
//! table is ever touched by two threads; there is no lock at all.
//!
//! # Batched multi-hop admission
//!
//! An admission must reserve every output port on the path or nothing
//! (the paper: "it is only accepted if there are available resources"
//! at each node). The coordinator runs a two-phase protocol per
//! request:
//!
//! 1. **Vote** — every participating shard answers, per hop, the exact
//!    error the real admission would return ([`HighPriorityTable::
//!    check_admit`] mirrors `admit`'s check order), without mutating.
//! 2. **Commit** — all hops voted yes: each shard reserves its hops in
//!    ascending canonical path order.
//! 3. **Abort** — some hop voted no: let `k` be the *first* failing
//!    path index. Shards replay exactly what the sequential
//!    transaction would have done: admit every owned hop before `k`,
//!    re-run the failing admission at `k` (it records the same
//!    allocator probes and fails the same way), then roll the
//!    reservations back in descending order. Hops after `k` are never
//!    touched. Because rollback releases can trigger defragmentation,
//!    this mutation-faithful replay — not a mere skip — is what keeps
//!    the final tables byte-identical to the single-owner
//!    [`QosManager`].
//!
//! # Determinism argument
//!
//! * Each table sees exactly the per-table operation sequence the
//!   sequential manager would apply, in the same order: the
//!   coordinator dispatches operations **strictly in trace order**,
//!   holds a shard claim for every in-flight operation, and never
//!   lets two in-flight operations share a shard. Outcomes and final
//!   table bytes are therefore independent of the shard count.
//! * Every random stream is a [`SplitMix64`] keyed by the owning
//!   port's [`PortKey::stable_code`], so repair randomness is
//!   identical no matter which shard (or how many shards) runs it.
//! * The coordinator's scheduling state (queue depth, dispatch tick)
//!   is a pure function of the trace and the shard count — worker
//!   reply timing cannot leak into any observable.
//!
//! The differential test (`tests/service_equivalence.rs`) proves the
//! claim on 100 random traces at 1, 2 and 8 shards.
//!
//! # Control-plane fault model
//!
//! [`run_trace_faulted`] layers a deterministic fault engine over the
//! protocol: a seeded [`ServeFaultPlan`] injects shard-worker crashes
//! (including between Vote and Commit), coordinator→shard message
//! loss and delay, and shard→coordinator reply loss. The service
//! survives every plan through three mechanisms:
//!
//! * a per-shard write-ahead [`IntentJournal`] (append intent before
//!   mutating, replay on supervised restart; the dangling tail intent
//!   is rolled forward deterministically);
//! * coordinator-side deterministic timeouts with the shared
//!   [`crate::retry::Backoff`] schedule plus idempotency keys
//!   (`(epoch, op)`), so a retried Commit that already landed is
//!   answered from the worker's reply cache instead of reserving
//!   twice;
//! * bounded-queue backpressure with a graceful-degradation ladder
//!   ([`ServeOptions`]): shed lowest-SL admissions first (rung 0),
//!   then fall back to [`Distance::looser`] installs (rung 1).
//!
//! Timeouts are *logical*: the engine owns the fault plan, so the
//! retry fires at a reproducible protocol point instead of a
//! wall-clock deadline — a faulted run is a pure function of (trace,
//! plan, shard count). Under any plan of the three fault kinds (with
//! the shedding ladder disabled) outcomes and final table bytes still
//! converge to the sequential reference at any shard count; only the
//! `serve_*` metrics record the turbulence.

use crate::cac::{PortKey, PortTables, RejectReason};
use crate::connection::{ConnectionId, HopReservation};
use crate::journal::{IntentJournal, JournalRecord, OpKey};
use crate::manager::QosManager;
use crate::recovery::{RecoveryManager, RecoverySummary};
use crate::retry::{Backoff, RetryPolicy};
use iba_core::{Distance, ServiceLevel, SplitMix64, TableError, VirtualLane, Weight};
use iba_traffic::ConnectionRequest;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;

/// Domain-separation constant for trace generation.
const TRACE_SEED: u64 = 0x5E87_EACE_5EED;
/// Domain-separation constant for table corruption (the same one the
/// single-stream [`QosManager::corrupt_tables`] uses).
const CORRUPT_SEED: u64 = 0x07AB_1EC0_5EED;
/// Odd multiplier spreading a port's stable code into a sub-seed.
const KEY_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;
/// Ring capacity of each shard worker's request tracer (16-byte
/// records; the ring keeps the newest protocol stages when a long
/// trace overflows it).
const WORKER_TRACE_CAP: usize = 16384;
/// Domain-separation constant for control-plane fault plans.
const SERVE_FAULT_SEED: u64 = 0xC0DE_FA17_5EED;

/// One operation of a request trace, addressed by request id (`rid`).
#[derive(Clone, Debug)]
pub enum TraceOp {
    /// Admit a connection (the request's `id` is the trace `rid`).
    Admit(ConnectionRequest),
    /// Tear down the connection admitted under this `rid` (a no-op
    /// outcome when it was rejected, already torn down, or unknown).
    Teardown(u32),
    /// Damage every table with seed-keyed corruption, then repair all
    /// of them (the chaos drill as a trace citizen).
    ///
    /// Repair evicts and re-admits sequences under fresh ids, so the
    /// hop reservations of connections admitted earlier go stale — a
    /// stale release could alias a rebuilt sequence. A repair
    /// therefore **invalidates every live connection handle**:
    /// tearing one down afterwards reports `TornDown(false)`.
    Repair {
        /// Seed for both the corruption and the repair streams.
        seed: u64,
    },
}

/// The outcome of one trace operation — the unit of the differential
/// test: a sharded run must produce the exact same outcome vector as
/// the sequential manager.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceOutcome {
    /// The connection was admitted end to end.
    Admitted {
        /// The request id now live.
        rid: u32,
    },
    /// The request was rejected (with the failing hop where the
    /// reason has one).
    Rejected(RejectReason),
    /// Teardown result: `true` when a live connection was released.
    TornDown(bool),
    /// Corruption + repair pass over every table.
    Repaired {
        /// Damage operations injected before the repair.
        damage: usize,
        /// Aggregated repair summary across all tables.
        summary: RecoverySummary,
    },
}

/// Parameters of [`generate_trace`].
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Hosts addressable by generated requests (`src`/`dst < hosts`).
    pub hosts: u16,
    /// Operations to generate.
    pub len: usize,
    /// Seed of the trace stream.
    pub seed: u64,
    /// Percentage of operations that are corrupt+repair drills
    /// (0 disables them — required by the strict weight-conservation
    /// invariant, which repair evictions legitimately break).
    pub repair_pct: u8,
}

impl TraceConfig {
    /// The standard admit-heavy mix: ~60% admits (loaded enough to
    /// force mid-path rejections and rollbacks), ~32% teardowns of
    /// earlier requests, 8% repair drills.
    #[must_use]
    pub fn new(hosts: u16, seed: u64, len: usize) -> Self {
        TraceConfig {
            hosts,
            len,
            seed,
            repair_pct: 8,
        }
    }
}

/// Generates a seeded admit/teardown/repair trace. Request ids are the
/// operation indices, so every `rid` is unique and teardowns of
/// rejected or double-torn requests occur naturally.
#[must_use]
pub fn generate_trace(cfg: &TraceConfig) -> Vec<TraceOp> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ TRACE_SEED);
    let hosts = cfg.hosts.max(2);
    let mut ops = Vec::with_capacity(cfg.len);
    for i in 0..cfg.len {
        let roll = rng.next_u64() % 100;
        let repair_band = u64::from(cfg.repair_pct.min(100));
        let teardown_band = repair_band + 32;
        if i > 0 && roll < repair_band {
            ops.push(TraceOp::Repair {
                seed: rng.next_u64(),
            });
        } else if i > 0 && roll < teardown_band {
            ops.push(TraceOp::Teardown((rng.next_u64() % i as u64) as u32));
        } else {
            let src = (rng.next_u64() % u64::from(hosts)) as u16;
            let dst = ((u64::from(src) + 1 + rng.next_u64() % u64::from(hosts - 1))
                % u64::from(hosts)) as u16;
            let distance = match rng.next_u64() % 4 {
                0 => Distance::D8,
                1 => Distance::D16,
                2 => Distance::D32,
                _ => Distance::D64,
            };
            // Large enough that a handful of connections saturate a
            // port (forcing mid-path rejections), small enough that
            // plenty are admitted.
            let mean_bw_mbps = (1 + rng.next_u64() % 50) as f64 * 10.0;
            // `% 13` keeps the id in the paper's 13 QoS SLs, so the
            // constructor cannot fail; the else arm is unreachable.
            if let Some(sl) = ServiceLevel::new((rng.next_u64() % 13) as u8) {
                ops.push(TraceOp::Admit(ConnectionRequest {
                    id: i as u32,
                    src: iba_topo::HostId(src),
                    dst: iba_topo::HostId(dst),
                    sl,
                    distance,
                    mean_bw_mbps,
                    packet_bytes: 256,
                }));
            } else {
                ops.push(TraceOp::Teardown(0));
            }
        }
    }
    ops
}

/// Per-table sub-seed for a port's corruption/repair streams: the
/// trace seed spread by the port's stable code, so the stream is a
/// property of the *table*, not of whichever shard happens to own it.
fn keyed_seed(seed: u64, key: PortKey) -> u64 {
    seed ^ key.stable_code().wrapping_mul(KEY_SPREAD)
}

/// Deterministically corrupts every touched table of a registry, each
/// with its own [`SplitMix64`] stream keyed by the port's stable code.
/// Returns the number of damage operations applied.
///
/// Unlike [`QosManager::corrupt_tables`] (one stream walked across all
/// tables in key order) the per-table keying makes the damage
/// independent of which other tables sit in the same registry — the
/// property that lets shards corrupt their partitions in isolation and
/// still match a sequential pass over the whole registry.
pub fn corrupt_tables_keyed(tables: &mut PortTables, seed: u64) -> usize {
    let mut ops = 0;
    for (key, t) in tables.tables_mut() {
        let mut rng = SplitMix64::seed_from_u64(keyed_seed(seed ^ CORRUPT_SEED, key));
        ops += t.inject_corruption(&mut rng);
    }
    ops
}

/// Repairs every touched table of a registry with a fresh
/// [`RecoveryManager`] per table, seeded by the port's stable code —
/// the shard-invariant counterpart of
/// [`QosManager::repair_tables`]. Returns the field-wise sum of the
/// per-table summaries.
pub fn repair_tables_keyed(
    tables: &mut PortTables,
    seed: u64,
    rec: &mut dyn iba_obs::Recorder,
) -> RecoverySummary {
    let mut total = RecoverySummary::default();
    for (key, t) in tables.tables_mut() {
        total += RecoveryManager::new(keyed_seed(seed, key)).repair_table(t, rec);
    }
    total
}

/// Applies a trace to the single-owner [`QosManager`] — the reference
/// the sharded service is differentially tested against. Teardowns
/// address requests by `rid` through a private map, so a double
/// teardown can never hit a recycled connection slot.
pub fn apply_trace_sequential(
    mgr: &mut QosManager,
    ops: &[TraceOp],
    rec: &mut dyn iba_obs::Recorder,
) -> Vec<TraceOutcome> {
    let mut ids: BTreeMap<u32, ConnectionId> = BTreeMap::new();
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let outcome = match op {
                TraceOp::Admit(req) => match mgr.request_observed(req, rec) {
                    Ok(id) => {
                        ids.insert(req.id, id);
                        TraceOutcome::Admitted { rid: req.id }
                    }
                    Err(e) => TraceOutcome::Rejected(e),
                },
                TraceOp::Teardown(rid) => {
                    let torn = ids
                        .remove(rid)
                        .map(|id| mgr.teardown_observed(id, rec))
                        .unwrap_or(false);
                    TraceOutcome::TornDown(torn)
                }
                TraceOp::Repair { seed } => {
                    let damage = corrupt_tables_keyed(mgr.tables_mut(), *seed);
                    let summary = repair_tables_keyed(mgr.tables_mut(), *seed, rec);
                    // Repair invalidates the live handles (see TraceOp).
                    ids.clear();
                    TraceOutcome::Repaired { damage, summary }
                }
            };
            // One logical tick per applied op — the same clock the
            // sharded coordinator advances per finalized op, so a
            // timeline attached to either recorder windows identically.
            rec.tick((i + 1) as u64);
            outcome
        })
        .collect()
}

/// A connection still live when the trace ended (weight-conservation
/// audits sum `weight × hops` over these).
#[derive(Clone, Debug)]
pub struct LiveConn {
    /// The request id.
    pub rid: u32,
    /// Per-hop reserved weight.
    pub weight: Weight,
    /// Per-hop reservations, source-side first.
    pub hops: Vec<HopReservation>,
}

/// What a sharded trace run produced.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-operation outcomes, in trace order.
    pub outcomes: Vec<TraceOutcome>,
    /// The reassembled port tables (union of all shard partitions).
    pub tables: PortTables,
    /// Admitted requests.
    pub accepted: u64,
    /// Rejected requests (planner and table rejections).
    pub rejected: u64,
    /// Live connections released by teardowns.
    pub released: u64,
    /// Connections still live at the end, in `rid` order.
    pub live: Vec<LiveConn>,
    /// Per-request causal trace records (`TraceEvent::Request` only),
    /// drained from the coordinator's ring first and then each
    /// shard's in shard order — a deterministic input for
    /// `iba_obs::request::reassemble`. Empty when the coordinator's
    /// recorder carries no tracer.
    pub request_records: Vec<(u64, iba_obs::TraceEvent)>,
    /// Each shard's write-ahead intent journal (indexed by shard), as
    /// returned at shutdown — the exactly-once ledger's raw material.
    /// Empty when a worker died mid-trace.
    pub journals: Vec<IntentJournal>,
    /// What the fault engine injected and survived (all zeros on an
    /// unfaulted run).
    pub fault_stats: FaultStats,
}

/// The shard owning an output port: a pure function of the port's
/// stable code, independent of process, registry contents and trace.
#[must_use]
pub fn shard_of(key: PortKey, shards: usize) -> usize {
    (key.stable_code() % shards.max(1) as u64) as usize
}

/// Everything a shard needs to evaluate one admission hop. Public so
/// the [`IntentJournal`] can record commit/abort intents verbatim.
#[derive(Clone, Copy, Debug)]
pub struct AdmitSpec {
    /// Service level of the request.
    pub sl: ServiceLevel,
    /// Virtual lane the SL maps to.
    pub vl: VirtualLane,
    /// Contracted inter-service distance.
    pub distance: Distance,
    /// Per-hop reserved weight.
    pub weight: Weight,
}

#[cfg(test)]
impl AdmitSpec {
    pub(crate) fn test_default() -> Self {
        AdmitSpec {
            sl: ServiceLevel::new(0).unwrap(),
            vl: VirtualLane::data(0),
            distance: Distance::D16,
            weight: 10,
        }
    }
}

/// One hop's vote: path index and the exact admission result.
type HopVote = (usize, Result<(), TableError>);

/// The protocol phase a control-plane fault attaches to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolPhase {
    /// The non-mutating per-hop vote.
    Vote,
    /// The commit batch (reserve every owned hop).
    Commit,
    /// The mutation-faithful rollback replay.
    Abort,
    /// A teardown's release batch.
    Release,
    /// The corrupt-and-repair drill.
    Repair,
}

impl ProtocolPhase {
    /// Stable code, used in idempotency-cache and dedup keys.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            ProtocolPhase::Vote => 0,
            ProtocolPhase::Commit => 1,
            ProtocolPhase::Abort => 2,
            ProtocolPhase::Release => 3,
            ProtocolPhase::Repair => 4,
        }
    }
}

/// Where inside a message's processing the worker crashes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashPoint {
    /// After journaling the intent, before any table mutation.
    BeforeAct,
    /// Mid-batch: after the first hop's mutation, before the rest.
    MidBatch,
    /// After every mutation and the journal's done marker, before the
    /// reply is sent (the reply is lost with the worker).
    BeforeReply,
}

/// The kind of control-plane fault to inject.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServeFaultKind {
    /// The worker processing the message crashes at the given point
    /// and is supervised-restarted (journal replay), losing its
    /// volatile state and the pending reply.
    Crash(CrashPoint),
    /// The coordinator→shard message is lost in flight; the
    /// deterministic timeout fires and the coordinator re-sends.
    MsgLoss,
    /// The message is delayed past the timeout: the retry *and* the
    /// late original are both delivered (duplicate delivery), which
    /// exercises the worker-side idempotency cache.
    MsgDelay,
    /// The shard→coordinator reply is lost; the timeout fires and the
    /// retried message is answered from the reply cache.
    ReplyLoss,
}

/// One scheduled fault: applies to the first delivery of the given
/// phase of trace operation `op`, on the lowest participating shard
/// (a pure function of the trace, so the set of *consumed* faults is
/// identical at any shard count).
#[derive(Clone, Copy, Debug)]
pub struct ServeFault {
    /// Trace operation index the fault targets.
    pub op: u32,
    /// Protocol phase it fires in (unconsumed if the op never reaches
    /// that phase — e.g. a Commit fault on a rejected admission).
    pub phase: ProtocolPhase,
    /// What happens.
    pub kind: ServeFaultKind,
}

/// A seeded, deterministic control-plane fault plan.
#[derive(Clone, Debug, Default)]
pub struct ServeFaultPlan {
    /// Seed the plan was generated from (also seeds the coordinator's
    /// retry-backoff jitter).
    pub seed: u64,
    /// Scheduled faults, in generation order.
    pub faults: Vec<ServeFault>,
}

impl ServeFaultPlan {
    /// The empty plan: [`run_trace_faulted`] degenerates to
    /// [`run_trace`].
    #[must_use]
    pub fn none() -> Self {
        ServeFaultPlan::default()
    }

    /// Generates a plan over a trace: each operation draws one fault
    /// with probability `intensity_pct`%, uniformly across the fault
    /// kinds and across the phases its op type can reach.
    #[must_use]
    pub fn generate(seed: u64, ops: &[TraceOp], intensity_pct: u8) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ SERVE_FAULT_SEED);
        let mut faults = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let roll = rng.next_u64() % 100;
            let phase_draw = rng.next_u64();
            let kind_draw = rng.next_u64();
            if roll >= u64::from(intensity_pct.min(100)) {
                continue;
            }
            let phase = match op {
                TraceOp::Admit(_) => match phase_draw % 3 {
                    0 => ProtocolPhase::Vote,
                    1 => ProtocolPhase::Commit,
                    _ => ProtocolPhase::Abort,
                },
                TraceOp::Teardown(_) => ProtocolPhase::Release,
                TraceOp::Repair { .. } => ProtocolPhase::Repair,
            };
            let kind = match kind_draw % 6 {
                0 => ServeFaultKind::Crash(CrashPoint::BeforeAct),
                1 => ServeFaultKind::Crash(CrashPoint::MidBatch),
                2 => ServeFaultKind::Crash(CrashPoint::BeforeReply),
                3 => ServeFaultKind::MsgLoss,
                4 => ServeFaultKind::MsgDelay,
                _ => ServeFaultKind::ReplyLoss,
            };
            faults.push(ServeFault {
                op: i as u32,
                phase,
                kind,
            });
        }
        ServeFaultPlan { seed, faults }
    }

    /// Threads the control-plane fault kinds of a data-plane fault
    /// calendar ([`iba_sim::fault::FaultPlan`]) into a serve plan:
    /// `ServeCrash`/`ServeVoteLoss`/`ServeReplyLoss` events map to
    /// crashes, vote loss/delay and reply loss (phase and crash point
    /// derived deterministically from the op index); data-plane events
    /// pass through untouched to whoever drives the simulator.
    #[must_use]
    pub fn from_calendar(plan: &iba_sim::fault::FaultPlan) -> Self {
        let mut faults = Vec::new();
        for (_, action) in &plan.events {
            match *action {
                iba_sim::fault::FaultAction::ServeCrash { op } => {
                    let phase = if op % 2 == 0 {
                        ProtocolPhase::Vote
                    } else {
                        ProtocolPhase::Commit
                    };
                    let point = match op % 3 {
                        0 => CrashPoint::BeforeAct,
                        1 => CrashPoint::MidBatch,
                        _ => CrashPoint::BeforeReply,
                    };
                    faults.push(ServeFault {
                        op,
                        phase,
                        kind: ServeFaultKind::Crash(point),
                    });
                }
                iba_sim::fault::FaultAction::ServeVoteLoss { op } => {
                    let kind = if op % 2 == 0 {
                        ServeFaultKind::MsgLoss
                    } else {
                        ServeFaultKind::MsgDelay
                    };
                    faults.push(ServeFault {
                        op,
                        phase: ProtocolPhase::Vote,
                        kind,
                    });
                }
                iba_sim::fault::FaultAction::ServeReplyLoss { op } => {
                    let phase = if op % 2 == 0 {
                        ProtocolPhase::Vote
                    } else {
                        ProtocolPhase::Commit
                    };
                    faults.push(ServeFault {
                        op,
                        phase,
                        kind: ServeFaultKind::ReplyLoss,
                    });
                }
                _ => {}
            }
        }
        ServeFaultPlan {
            seed: plan.seed,
            faults,
        }
    }

    /// True when the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Fault-tolerance knobs of [`run_trace_faulted`]. The defaults make
/// the faulted engine behave exactly like [`run_trace`]: journal on,
/// queue unbounded, shedding ladder off.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Retain the write-ahead journal (disable only as the negative
    /// control: a crashed worker then restarts from an empty
    /// partition and every earlier reservation on it is lost).
    pub journal: bool,
    /// Bound on in-flight (dispatched, unfinalized) operations; the
    /// dispatcher backpressures at the bound.
    pub queue_capacity: usize,
    /// Enable the graceful-degradation ladder when the queue is full:
    /// rung 0 sheds admissions below [`ServeOptions::shed_sl_floor`],
    /// rung 1 installs the rest at one [`Distance::looser`] step.
    /// Shedding intentionally diverges from the sequential reference
    /// (requests are refused that it would admit), so differential
    /// audits run with the ladder off.
    pub shed_ladder: bool,
    /// SLs strictly below this are shed first (rung 0).
    pub shed_sl_floor: u8,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            journal: true,
            queue_capacity: usize::MAX,
            shed_ladder: false,
            shed_sl_floor: 4,
        }
    }
}

/// What the fault engine actually injected and survived — all counts
/// are of *consumed* faults, a pure function of the trace and plan
/// (identical at any shard count).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker crashes injected (each one forced a journal replay).
    pub crashes: u64,
    /// Coordinator→shard messages lost.
    pub msg_losses: u64,
    /// Messages delayed past the timeout (duplicate deliveries).
    pub msg_delays: u64,
    /// Shard→coordinator replies lost.
    pub reply_losses: u64,
    /// Deterministic timeouts fired (= retries sent).
    pub timeouts: u64,
    /// Shedding-ladder actions per rung: `[shed lowest-SL, degraded
    /// install]`.
    pub shed: [u64; 2],
}

/// Coordinator → shard messages. `hops` carry `(path index, key)` in
/// ascending path order — the canonical reservation order.
#[derive(Clone)]
enum ToShard {
    Vote {
        op: usize,
        spec: AdmitSpec,
        hops: Vec<(usize, PortKey)>,
    },
    Commit {
        op: usize,
        spec: AdmitSpec,
        hops: Vec<(usize, PortKey)>,
    },
    Abort {
        op: usize,
        spec: AdmitSpec,
        hops: Vec<(usize, PortKey)>,
        fail_at: usize,
    },
    Release {
        op: usize,
        weight: Weight,
        hops: Vec<(usize, HopReservation)>,
    },
    Repair {
        op: usize,
        seed: u64,
    },
    Finish,
}

impl ToShard {
    /// The protocol phase this message drives (`None` for `Finish`).
    fn phase(&self) -> Option<ProtocolPhase> {
        match self {
            ToShard::Vote { .. } => Some(ProtocolPhase::Vote),
            ToShard::Commit { .. } => Some(ProtocolPhase::Commit),
            ToShard::Abort { .. } => Some(ProtocolPhase::Abort),
            ToShard::Release { .. } => Some(ProtocolPhase::Release),
            ToShard::Repair { .. } => Some(ProtocolPhase::Repair),
            ToShard::Finish => None,
        }
    }
}

/// The wire envelope: the fault engine sits on this layer. `crash`
/// carries a scripted worker crash for this delivery (`None` on the
/// unfaulted path and on every retry); `epoch` is the idempotency-key
/// epoch the coordinator stamped at dispatch.
struct Envelope {
    epoch: u32,
    crash: Option<CrashPoint>,
    msg: ToShard,
}

impl Envelope {
    fn clean(epoch: u32, msg: ToShard) -> Self {
        Envelope {
            epoch,
            crash: None,
            msg,
        }
    }
}

/// Shard → coordinator replies. `from` names the replying shard so the
/// fault engine can attribute replies (the state machines ignore it).
enum FromShard {
    Voted {
        op: usize,
        from: usize,
        votes: Vec<HopVote>,
    },
    Committed {
        op: usize,
        from: usize,
        hops: Vec<(usize, HopReservation)>,
    },
    Aborted {
        op: usize,
        from: usize,
        error: Option<TableError>,
    },
    Released {
        op: usize,
        from: usize,
    },
    Repaired {
        op: usize,
        from: usize,
        damage: usize,
        summary: RecoverySummary,
    },
    Finished {
        shard: usize,
        tables: Box<PortTables>,
        rec: Box<iba_obs::ObsRecorder>,
        journal: Box<IntentJournal>,
    },
}

/// A cached reply payload, keyed by `(OpKey, phase code)` — the
/// idempotency cache. Rebuilt from the journal on restart, so a retry
/// whose original landed before a crash is still answered without
/// re-execution.
#[derive(Clone)]
enum CachedReply {
    Voted(Vec<HopVote>),
    Committed(Vec<(usize, HopReservation)>),
    Aborted(Option<TableError>),
    Released,
    Repaired {
        damage: usize,
        summary: RecoverySummary,
    },
}

impl CachedReply {
    /// Reconstructs the wire reply for a retried message.
    fn to_reply(&self, op: usize, from: usize) -> FromShard {
        match self {
            CachedReply::Voted(votes) => FromShard::Voted {
                op,
                from,
                votes: votes.clone(),
            },
            CachedReply::Committed(hops) => FromShard::Committed {
                op,
                from,
                hops: hops.clone(),
            },
            CachedReply::Aborted(error) => FromShard::Aborted {
                op,
                from,
                error: *error,
            },
            CachedReply::Released => FromShard::Released { op, from },
            CachedReply::Repaired { damage, summary } => FromShard::Repaired {
                op,
                from,
                damage: *damage,
                summary: *summary,
            },
        }
    }
}

/// Coordinator-side state of one dispatched, unfinalized operation.
enum OpState {
    /// Outcome known; waiting for its in-order finalize turn.
    Resolved(Resolution),
    /// Admission: waiting for `waiting` shards' votes.
    Voting {
        rid: u32,
        spec: AdmitSpec,
        path: Vec<PortKey>,
        participants: Vec<usize>,
        waiting: usize,
        votes: Vec<HopVote>,
    },
    /// Admission: all votes yes, waiting for shard commits.
    Committing {
        rid: u32,
        spec: AdmitSpec,
        waiting: usize,
        hops: Vec<(usize, HopReservation)>,
    },
    /// Admission: vote failed at `fail_key`, shards rolling back.
    Aborting {
        fail_key: PortKey,
        waiting: usize,
        error: Option<TableError>,
    },
    /// Teardown: waiting for shard releases.
    Releasing { waiting: usize },
    /// Repair drill: waiting for every shard's pass.
    Repairing {
        waiting: usize,
        damage: usize,
        summary: RecoverySummary,
    },
}

/// A resolved operation, ready to finalize.
enum Resolution {
    Admitted {
        rid: u32,
        sl: u8,
        weight: Weight,
        hops: Vec<HopReservation>,
    },
    Rejected(RejectReason),
    TornDown(bool),
    Repaired {
        damage: usize,
        summary: RecoverySummary,
    },
}

fn reject_for(error: Option<TableError>, key: PortKey) -> RejectReason {
    match error {
        Some(TableError::NoFreeSequence) => RejectReason::NoFreeSequence(key),
        Some(TableError::CapacityExceeded) => RejectReason::CapacityExceeded(key),
        Some(TableError::RequestTooLarge) => RejectReason::RequestTooLarge,
        _ => RejectReason::InvalidRequest,
    }
}

/// The volatile half of a shard worker — exactly what a crash
/// destroys. The journal and the recorder live outside it: the
/// journal is the durable WAL, the recorder models the external
/// observability backplane.
struct ShardVolatile {
    tables: PortTables,
    cache: BTreeMap<(OpKey, u8), CachedReply>,
}

/// Reserves every hop of a commit batch in ascending path order.
/// `live` meters the protocol counters and stage events; journal
/// replay re-applies the mutations without re-counting protocol
/// actions (allocator-level metering inside `admit_at` still runs).
fn apply_commit(
    tables: &mut PortTables,
    op: usize,
    spec: AdmitSpec,
    hops: &[(usize, PortKey)],
    rec: &mut iba_obs::ObsRecorder,
    lane: u8,
    live: bool,
) -> Vec<(usize, HopReservation)> {
    use iba_obs::{request_stage, Recorder};
    let mut done = Vec::with_capacity(hops.len());
    for &(i, k) in hops {
        if let Ok(h) = tables.admit_at(k, spec.sl, spec.vl, spec.distance, spec.weight, rec) {
            if live {
                rec.serve_shard_admit(lane);
                rec.request_stage(op as u32, request_stage::COMMIT, lane, i as u8);
            }
            done.push((i, h));
        }
    }
    done
}

/// The mutation-faithful rollback replay (see module docs): admit the
/// owned hops below the failing index, re-run the failing admission,
/// then roll back in descending path order.
#[allow(clippy::too_many_arguments)] // internal protocol plumbing; a struct would just rename the args
fn apply_abort(
    tables: &mut PortTables,
    spec: AdmitSpec,
    hops: &[(usize, PortKey)],
    fail_at: usize,
    rec: &mut iba_obs::ObsRecorder,
    lane: u8,
    shard: usize,
    live: bool,
) -> Option<TableError> {
    use iba_obs::Recorder;
    let mut done: Vec<(usize, HopReservation)> = Vec::new();
    for &(i, k) in hops.iter().filter(|&&(i, _)| i < fail_at) {
        if let Ok(h) = tables.admit_at(k, spec.sl, spec.vl, spec.distance, spec.weight, rec) {
            done.push((i, h));
        }
    }
    assert!(
        done.len() == hops.iter().filter(|&&(i, _)| i < fail_at).count(),
        "vote/rollback divergence on shard {shard}"
    );
    // Replay the failing admission (recording the same allocator
    // probes the sequential path records)...
    let mut error = None;
    if let Some(&(_, k)) = hops.iter().find(|&&(i, _)| i == fail_at) {
        match tables.admit_at(k, spec.sl, spec.vl, spec.distance, spec.weight, rec) {
            Err(e) => {
                error = Some(e);
                if live {
                    rec.serve_shard_reject(lane);
                }
            }
            Ok(h) => {
                // Undo the stray reservation before the invariant
                // below reports the divergence.
                let _ = tables.release_hop(h, spec.weight);
            }
        }
        assert!(
            error.is_some(),
            "aborted hop admitted despite a failing vote on shard {shard}"
        );
    }
    // ...then roll back in descending path order, exactly like the
    // sequential transaction.
    if live && !done.is_empty() {
        rec.serve_shard_rollback(lane);
    }
    for &(_, h) in done.iter().rev() {
        let _ = tables.release_hop(h, spec.weight);
    }
    error
}

/// Releases a teardown's hops in descending path order, mirroring
/// `release_path`. A failed hop (evicted by an earlier repair) is
/// absorbed exactly like the sequential teardown does.
fn apply_release(tables: &mut PortTables, weight: Weight, hops: &[(usize, HopReservation)]) {
    for &(_, h) in hops.iter().rev() {
        let _ = tables.release_hop(h, weight);
    }
}

/// The corrupt-and-repair drill over one partition.
fn apply_repair(
    tables: &mut PortTables,
    seed: u64,
    rec: &mut iba_obs::ObsRecorder,
) -> (usize, RecoverySummary) {
    let damage = corrupt_tables_keyed(tables, seed);
    let summary = repair_tables_keyed(tables, seed, rec);
    (damage, summary)
}

/// Re-applies one journaled intent against the rebuilding partition,
/// rebuilds its cached reply, and returns the done marker that closes
/// it (used when rolling the dangling tail forward).
fn replay_intent(
    tables: &mut PortTables,
    intent: &JournalRecord,
    cache: &mut BTreeMap<(OpKey, u8), CachedReply>,
    rec: &mut iba_obs::ObsRecorder,
    shard: usize,
) -> Option<JournalRecord> {
    let lane = shard as u8;
    match intent {
        JournalRecord::CommitIntent { key, spec, hops } => {
            let done = apply_commit(tables, key.1 as usize, *spec, hops, rec, lane, false);
            assert!(
                done.len() == hops.len(),
                "journal replay commit divergence on shard {shard}"
            );
            cache.insert(
                (*key, ProtocolPhase::Commit.code()),
                CachedReply::Committed(done),
            );
            Some(JournalRecord::CommitDone { key: *key })
        }
        JournalRecord::AbortIntent {
            key,
            spec,
            hops,
            fail_at,
        } => {
            let error = apply_abort(tables, *spec, hops, *fail_at, rec, lane, shard, false);
            cache.insert(
                (*key, ProtocolPhase::Abort.code()),
                CachedReply::Aborted(error),
            );
            Some(JournalRecord::AbortDone { key: *key })
        }
        JournalRecord::ReleaseIntent { key, weight, hops } => {
            apply_release(tables, *weight, hops);
            cache.insert((*key, ProtocolPhase::Release.code()), CachedReply::Released);
            Some(JournalRecord::ReleaseDone { key: *key })
        }
        JournalRecord::RepairIntent { key, seed } => {
            let (damage, summary) = apply_repair(tables, *seed, rec);
            cache.insert(
                (*key, ProtocolPhase::Repair.code()),
                CachedReply::Repaired { damage, summary },
            );
            Some(JournalRecord::RepairDone { key: *key })
        }
        _ => None,
    }
}

/// Supervised-restart recovery: rebuilds the partition and the reply
/// cache by replaying the journal against a fresh empty partition.
/// Completed intent/done pairs are re-applied in order; the dangling
/// tail intent (the transaction the crash interrupted) is rolled
/// forward and closed in the journal. Every table mutation is
/// deterministic, so the rebuilt partition is byte-identical to the
/// crash-free one.
fn rebuild_from_journal(
    shard: usize,
    base: &PortTables,
    journal: &mut IntentJournal,
    rec: &mut iba_obs::ObsRecorder,
) -> ShardVolatile {
    let mut tables = base.empty_like();
    let mut cache: BTreeMap<(OpKey, u8), CachedReply> = BTreeMap::new();
    let records: Vec<JournalRecord> = journal.records().to_vec();
    let mut open: Option<JournalRecord> = None;
    for r in &records {
        match r {
            JournalRecord::Voted { key, votes } => {
                cache.insert(
                    (*key, ProtocolPhase::Vote.code()),
                    CachedReply::Voted(votes.clone()),
                );
            }
            JournalRecord::CommitIntent { .. }
            | JournalRecord::AbortIntent { .. }
            | JournalRecord::ReleaseIntent { .. }
            | JournalRecord::RepairIntent { .. } => {
                open = Some(r.clone());
            }
            JournalRecord::CommitDone { .. }
            | JournalRecord::AbortDone { .. }
            | JournalRecord::ReleaseDone { .. }
            | JournalRecord::RepairDone { .. } => {
                if let Some(intent) = open.take() {
                    let _ = replay_intent(&mut tables, &intent, &mut cache, rec, shard);
                }
            }
        }
    }
    if let Some(intent) = open.take() {
        // Roll the interrupted transaction forward and close it.
        if let Some(done) = replay_intent(&mut tables, &intent, &mut cache, rec, shard) {
            journal.append(done);
        }
    }
    ShardVolatile { tables, cache }
}

/// A scripted crash at `point`: discard the volatile state and run the
/// supervised restart. The reply the coordinator was waiting for is
/// lost with the worker — the engine's deterministic timeout retries.
fn crash_restart(
    shard: usize,
    base: &PortTables,
    vol: &mut ShardVolatile,
    journal: &mut IntentJournal,
    rec: &mut iba_obs::ObsRecorder,
) {
    use iba_obs::Recorder;
    let lane = shard as u8;
    rec.serve_crash(lane);
    *vol = rebuild_from_journal(shard, base, journal, rec);
    rec.serve_journal_replay(lane, journal.len() as u64);
}

/// Executes one protocol message on a shard, honoring the envelope's
/// scripted crash point and the idempotency cache.
fn handle_message(
    shard: usize,
    base: &PortTables,
    env: Envelope,
    vol: &mut ShardVolatile,
    journal: &mut IntentJournal,
    rec: &mut iba_obs::ObsRecorder,
    tx: &mpsc::Sender<FromShard>,
) {
    use iba_obs::{request_stage, Recorder};
    let lane = shard as u8;
    let (op, phase) = match (&env.msg, env.msg.phase()) {
        (
            ToShard::Vote { op, .. }
            | ToShard::Commit { op, .. }
            | ToShard::Abort { op, .. }
            | ToShard::Release { op, .. }
            | ToShard::Repair { op, .. },
            Some(phase),
        ) => (*op, phase),
        _ => return,
    };
    let key: OpKey = (env.epoch, op as u32);
    rec.tick(op as u64);
    // Idempotent retry: a re-delivered message whose transaction
    // already completed is answered from the cache — never
    // re-executed, so a retried Commit cannot double-reserve.
    if let Some(cached) = vol.cache.get(&(key, phase.code())) {
        let _ = tx.send(cached.to_reply(op, shard));
        return;
    }
    match env.msg {
        ToShard::Vote { op, spec, hops } => {
            match env.crash {
                Some(CrashPoint::BeforeAct) => {
                    crash_restart(shard, base, vol, journal, rec);
                    return;
                }
                Some(CrashPoint::MidBatch) => {
                    // Probe the first hop, then go down mid-batch.
                    if let Some(&(i, k)) = hops.first() {
                        rec.request_stage(op as u32, request_stage::VOTE, lane, i as u8);
                        let _ = vol
                            .tables
                            .probe_admit(k, spec.sl, spec.distance, spec.weight);
                    }
                    crash_restart(shard, base, vol, journal, rec);
                    return;
                }
                _ => {}
            }
            let votes: Vec<HopVote> = hops
                .iter()
                .map(|&(i, k)| {
                    rec.request_stage(op as u32, request_stage::VOTE, lane, i as u8);
                    (
                        i,
                        vol.tables
                            .probe_admit(k, spec.sl, spec.distance, spec.weight),
                    )
                })
                .collect();
            journal.append(JournalRecord::Voted {
                key,
                votes: votes.clone(),
            });
            if matches!(env.crash, Some(CrashPoint::BeforeReply)) {
                crash_restart(shard, base, vol, journal, rec);
                return;
            }
            vol.cache
                .insert((key, phase.code()), CachedReply::Voted(votes.clone()));
            let _ = tx.send(FromShard::Voted {
                op,
                from: shard,
                votes,
            });
        }
        ToShard::Commit { op, spec, hops } => {
            // Write-ahead: the intent is durable before any mutation,
            // so every crash below rolls forward to a completed
            // commit on restart.
            journal.append(JournalRecord::CommitIntent {
                key,
                spec,
                hops: hops.clone(),
            });
            match env.crash {
                Some(CrashPoint::BeforeAct) => {
                    crash_restart(shard, base, vol, journal, rec);
                    return;
                }
                Some(CrashPoint::MidBatch) => {
                    // First hop reserved, rest of the batch lost with
                    // the worker — the half-committed transaction.
                    let _ = apply_commit(&mut vol.tables, op, spec, &hops[..1], rec, lane, true);
                    crash_restart(shard, base, vol, journal, rec);
                    return;
                }
                _ => {}
            }
            let done = apply_commit(&mut vol.tables, op, spec, &hops, rec, lane, true);
            // The conflict gate guarantees nothing touched these
            // tables since the vote, so every voted-yes hop commits.
            assert!(
                done.len() == hops.len(),
                "vote/commit divergence on shard {shard}"
            );
            journal.append(JournalRecord::CommitDone { key });
            if matches!(env.crash, Some(CrashPoint::BeforeReply)) {
                crash_restart(shard, base, vol, journal, rec);
                return;
            }
            vol.cache
                .insert((key, phase.code()), CachedReply::Committed(done.clone()));
            let _ = tx.send(FromShard::Committed {
                op,
                from: shard,
                hops: done,
            });
        }
        ToShard::Abort {
            op,
            spec,
            hops,
            fail_at,
        } => {
            journal.append(JournalRecord::AbortIntent {
                key,
                spec,
                hops: hops.clone(),
                fail_at,
            });
            rec.request_stage(op as u32, request_stage::ABORT, lane, fail_at as u8);
            if matches!(
                env.crash,
                Some(CrashPoint::BeforeAct | CrashPoint::MidBatch)
            ) {
                // Both points land inside the rollback replay; the
                // journal rolls the whole abort forward on restart.
                crash_restart(shard, base, vol, journal, rec);
                return;
            }
            let error = apply_abort(
                &mut vol.tables,
                spec,
                &hops,
                fail_at,
                rec,
                lane,
                shard,
                true,
            );
            journal.append(JournalRecord::AbortDone { key });
            if matches!(env.crash, Some(CrashPoint::BeforeReply)) {
                crash_restart(shard, base, vol, journal, rec);
                return;
            }
            vol.cache
                .insert((key, phase.code()), CachedReply::Aborted(error));
            let _ = tx.send(FromShard::Aborted {
                op,
                from: shard,
                error,
            });
        }
        ToShard::Release { op, weight, hops } => {
            journal.append(JournalRecord::ReleaseIntent {
                key,
                weight,
                hops: hops.clone(),
            });
            match env.crash {
                Some(CrashPoint::BeforeAct) => {
                    crash_restart(shard, base, vol, journal, rec);
                    return;
                }
                Some(CrashPoint::MidBatch) => {
                    // Release the last hop (descending order starts
                    // there), then go down.
                    apply_release(
                        &mut vol.tables,
                        weight,
                        &hops[hops.len().saturating_sub(1)..],
                    );
                    crash_restart(shard, base, vol, journal, rec);
                    return;
                }
                _ => {}
            }
            apply_release(&mut vol.tables, weight, &hops);
            journal.append(JournalRecord::ReleaseDone { key });
            if matches!(env.crash, Some(CrashPoint::BeforeReply)) {
                crash_restart(shard, base, vol, journal, rec);
                return;
            }
            vol.cache.insert((key, phase.code()), CachedReply::Released);
            let _ = tx.send(FromShard::Released { op, from: shard });
        }
        ToShard::Repair { op, seed } => {
            journal.append(JournalRecord::RepairIntent { key, seed });
            if matches!(
                env.crash,
                Some(CrashPoint::BeforeAct | CrashPoint::MidBatch)
            ) {
                crash_restart(shard, base, vol, journal, rec);
                return;
            }
            let (damage, summary) = apply_repair(&mut vol.tables, seed, rec);
            journal.append(JournalRecord::RepairDone { key });
            if matches!(env.crash, Some(CrashPoint::BeforeReply)) {
                crash_restart(shard, base, vol, journal, rec);
                return;
            }
            vol.cache.insert(
                (key, phase.code()),
                CachedReply::Repaired { damage, summary },
            );
            let _ = tx.send(FromShard::Repaired {
                op,
                from: shard,
                damage,
                summary,
            });
        }
        ToShard::Finish => {}
    }
}

/// The shard worker: exclusively owns one partition of the port
/// tables and executes the coordinator's protocol messages in arrival
/// order. It never blocks on the (unbounded) reply channel, so the
/// service cannot deadlock. Scripted crashes (see [`ServeFaultPlan`])
/// destroy its volatile state; the write-ahead journal brings the
/// partition back.
fn shard_worker(
    shard: usize,
    base: &PortTables,
    rx: &mpsc::Receiver<Envelope>,
    tx: &mpsc::Sender<FromShard>,
    journal_enabled: bool,
) {
    let mut rec = iba_obs::ObsRecorder::with_tracer(WORKER_TRACE_CAP);
    let mut journal = IntentJournal::new(journal_enabled);
    let mut vol = ShardVolatile {
        tables: base.empty_like(),
        cache: BTreeMap::new(),
    };
    while let Ok(env) = rx.recv() {
        if matches!(env.msg, ToShard::Finish) {
            let tables = std::mem::replace(&mut vol.tables, base.empty_like());
            let _ = tx.send(FromShard::Finished {
                shard,
                tables: Box::new(tables),
                rec: Box::new(std::mem::replace(&mut rec, iba_obs::ObsRecorder::new())),
                journal: Box::new(std::mem::take(&mut journal)),
            });
            return;
        }
        handle_message(shard, base, env, &mut vol, &mut journal, &mut rec, tx);
    }
}

/// What the coordinator decided to do with the next trace operation.
enum Dispatch {
    /// Resolved locally, no shard involved.
    Local(Resolution),
    /// Admission voted across `participants`.
    Admit {
        rid: u32,
        spec: AdmitSpec,
        path: Vec<PortKey>,
        participants: Vec<usize>,
    },
    /// Teardown released across `participants`.
    Teardown {
        weight: Weight,
        hops: Vec<HopReservation>,
        participants: Vec<usize>,
    },
    /// Repair drill across every shard.
    Repair { seed: u64 },
}

/// Shards of a hop list, ascending and deduplicated.
fn participants_of(keys: &[PortKey], shards: usize) -> Vec<usize> {
    let mut out: Vec<usize> = keys.iter().map(|&k| shard_of(k, shards)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The coordinator-side fault engine: consumes the plan's scheduled
/// faults at message send/receive sites, meters the deterministic
/// timeouts that stand in for wall-clock expiry, and dedupes the
/// duplicate replies its own duplicate deliveries produce.
///
/// Faults target the **lowest** participating shard of their op (a
/// pure function of the trace), so the set of consumed faults — and
/// with it every count in [`FaultStats`] — is identical at any shard
/// count.
struct FaultEngine {
    faults: Vec<ServeFault>,
    backoff: Backoff,
    /// Retry attempt counter per op (drives the backoff exponent).
    attempts: BTreeMap<usize, u32>,
    /// Pending reply-loss resends: `(op, phase code)` → the message to
    /// re-send to the target shard once its first reply is swallowed.
    resend: BTreeMap<(usize, u8), (usize, ToShard)>,
    /// Outstanding duplicate deliveries: `(op, phase code, shard)` →
    /// surplus replies still expected (and to be dropped).
    surplus: BTreeMap<(usize, u8, usize), u32>,
    /// Keys of `surplus` whose first reply already advanced the state
    /// machine — later copies are duplicates.
    applied: BTreeSet<(usize, u8, usize)>,
    stats: FaultStats,
    /// Idempotency-key epoch, bumped by every finalized repair drill.
    epoch: u32,
}

impl FaultEngine {
    fn new(plan: &ServeFaultPlan) -> Self {
        FaultEngine {
            faults: plan.faults.clone(),
            backoff: Backoff::new(plan.seed ^ SERVE_FAULT_SEED, RetryPolicy::default()),
            attempts: BTreeMap::new(),
            resend: BTreeMap::new(),
            surplus: BTreeMap::new(),
            applied: BTreeSet::new(),
            stats: FaultStats::default(),
            epoch: 0,
        }
    }

    /// Consumes a scheduled send-side fault (anything but reply loss)
    /// for this op and phase.
    fn take_send_fault(&mut self, op: u32, phase: ProtocolPhase) -> Option<ServeFaultKind> {
        let idx = self.faults.iter().position(|f| {
            f.op == op && f.phase == phase && !matches!(f.kind, ServeFaultKind::ReplyLoss)
        })?;
        Some(self.faults.swap_remove(idx).kind)
    }

    fn has_reply_fault(&self, op: u32, phase: ProtocolPhase) -> bool {
        self.faults
            .iter()
            .any(|f| f.op == op && f.phase == phase && matches!(f.kind, ServeFaultKind::ReplyLoss))
    }

    fn take_reply_fault(&mut self, op: u32, phase: ProtocolPhase) -> bool {
        let idx = self.faults.iter().position(|f| {
            f.op == op && f.phase == phase && matches!(f.kind, ServeFaultKind::ReplyLoss)
        });
        match idx {
            Some(i) => {
                self.faults.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// A deterministic timeout expiry: draws the next backoff delay
    /// (advancing the seeded jitter stream) and meters it. The retry
    /// the caller sends right after models the post-timeout re-send.
    fn timeout(&mut self, shard: usize, op: usize, rec: &mut iba_obs::ObsRecorder) {
        use iba_obs::Recorder;
        let attempt = self.attempts.entry(op).or_insert(0);
        let delay = self.backoff.delay(*attempt);
        *attempt += 1;
        self.stats.timeouts += 1;
        rec.serve_timeout(shard as u8, delay);
    }

    /// Sends one protocol message through the fault layer. `is_target`
    /// marks the op's designated fault-target shard (the lowest
    /// participant); every other shard always gets a clean first
    /// delivery.
    fn send(
        &mut self,
        to_shard: &[mpsc::SyncSender<Envelope>],
        shard: usize,
        is_target: bool,
        op: usize,
        msg: ToShard,
        rec: &mut iba_obs::ObsRecorder,
    ) {
        let Some(phase) = msg.phase() else {
            let _ = to_shard[shard].send(Envelope::clean(self.epoch, msg));
            return;
        };
        if is_target {
            if let Some(kind) = self.take_send_fault(op as u32, phase) {
                match kind {
                    ServeFaultKind::Crash(point) => {
                        // Scripted crash rides the envelope; the worker
                        // goes down without replying, the timeout fires
                        // and the clean retry lands on the restarted
                        // worker (idempotency cache absorbs it if the
                        // transaction rolled forward).
                        self.stats.crashes += 1;
                        let _ = to_shard[shard].send(Envelope {
                            epoch: self.epoch,
                            crash: Some(point),
                            msg: msg.clone(),
                        });
                        self.timeout(shard, op, rec);
                        let _ = to_shard[shard].send(Envelope::clean(self.epoch, msg));
                    }
                    ServeFaultKind::MsgLoss => {
                        // First delivery lost in flight: only the
                        // post-timeout retry reaches the worker.
                        self.stats.msg_losses += 1;
                        self.timeout(shard, op, rec);
                        let _ = to_shard[shard].send(Envelope::clean(self.epoch, msg));
                    }
                    ServeFaultKind::MsgDelay => {
                        // Delayed past the timeout: the original AND
                        // the retry both arrive. The worker's cache
                        // answers the duplicate; the surplus entry
                        // makes the coordinator drop the extra reply.
                        self.stats.msg_delays += 1;
                        let _ = to_shard[shard].send(Envelope::clean(self.epoch, msg.clone()));
                        self.timeout(shard, op, rec);
                        let _ = to_shard[shard].send(Envelope::clean(self.epoch, msg));
                        *self.surplus.entry((op, phase.code(), shard)).or_insert(0) += 1;
                    }
                    ServeFaultKind::ReplyLoss => {
                        // Filtered out by take_send_fault; keep the
                        // message flowing if it ever slipped through.
                        let _ = to_shard[shard].send(Envelope::clean(self.epoch, msg));
                    }
                }
                return;
            }
            if self.has_reply_fault(op as u32, phase) {
                // Reply loss is consumed at receive time; remember the
                // message so the post-timeout retry can be re-sent.
                self.resend.insert((op, phase.code()), (shard, msg.clone()));
            }
        }
        let _ = to_shard[shard].send(Envelope::clean(self.epoch, msg));
    }

    /// Receive-side fault layer. Returns `true` when the reply must
    /// not reach the state machines: either the scheduled reply loss
    /// swallowed it (the timeout fires and the retry goes out), or it
    /// is the surplus copy of an already-applied duplicate delivery.
    fn intercept(
        &mut self,
        reply: &FromShard,
        to_shard: &[mpsc::SyncSender<Envelope>],
        rec: &mut iba_obs::ObsRecorder,
    ) -> bool {
        let (op, phase, from) = match reply {
            FromShard::Voted { op, from, .. } => (*op, ProtocolPhase::Vote, *from),
            FromShard::Committed { op, from, .. } => (*op, ProtocolPhase::Commit, *from),
            FromShard::Aborted { op, from, .. } => (*op, ProtocolPhase::Abort, *from),
            FromShard::Released { op, from } => (*op, ProtocolPhase::Release, *from),
            FromShard::Repaired { op, from, .. } => (*op, ProtocolPhase::Repair, *from),
            FromShard::Finished { .. } => return false,
        };
        let pkey = (op, phase.code());
        if self.resend.get(&pkey).is_some_and(|&(s, _)| s == from)
            && self.take_reply_fault(op as u32, phase)
        {
            if let Some((shard, msg)) = self.resend.remove(&pkey) {
                self.stats.reply_losses += 1;
                self.timeout(shard, op, rec);
                let _ = to_shard[shard].send(Envelope::clean(self.epoch, msg));
                return true;
            }
        }
        let skey = (op, phase.code(), from);
        if let Some(n) = self.surplus.get_mut(&skey) {
            if self.applied.contains(&skey) {
                *n -= 1;
                if *n == 0 {
                    self.surplus.remove(&skey);
                    self.applied.remove(&skey);
                }
                return true;
            }
            self.applied.insert(skey);
        }
        false
    }
}

/// Runs a trace through the sharded service and returns the report.
///
/// `planner` supplies the topology, routing, SL configuration and
/// table template; its own tables are never touched. Worker metrics
/// (allocator probes, recovery counters, `serve_shard_*`) merge into
/// `rec` alongside the coordinator's admission counters when the run
/// finishes.
///
/// Outcomes and final tables are byte-identical to
/// [`apply_trace_sequential`] on the same trace at **any** shard
/// count; only the `serve_*` metrics depend on the shard count.
pub fn run_trace(
    planner: &QosManager,
    ops: &[TraceOp],
    shards: usize,
    rec: &mut iba_obs::ObsRecorder,
) -> ServeReport {
    run_trace_faulted(
        planner,
        ops,
        shards,
        &ServeFaultPlan::none(),
        &ServeOptions::default(),
        rec,
    )
}

/// [`run_trace`] with a control-plane fault plan and fault-tolerance
/// options. With the empty plan and default options this *is*
/// [`run_trace`]; with faults, the run must still converge to the
/// same outcomes and table bytes — crashes are survived by journal
/// replay, lost messages and replies by deterministic timeouts plus
/// idempotent retries. Only the shedding ladder (off by default) is
/// allowed to diverge from the sequential reference.
pub fn run_trace_faulted(
    planner: &QosManager,
    ops: &[TraceOp],
    shards: usize,
    plan: &ServeFaultPlan,
    opts: &ServeOptions,
    rec: &mut iba_obs::ObsRecorder,
) -> ServeReport {
    use iba_obs::{request_stage, Recorder};
    let shards = shards.max(1);
    let base = planner.port_tables();
    let mut eng = FaultEngine::new(plan);
    // lint: allow(no-thread-spawn) -- the shard workers ARE the service: each exclusively owns one table partition, and the coordinator's strict in-order dispatch keeps every observable byte-identical at any shard count (proven by tests/service_equivalence.rs).
    std::thread::scope(|scope| {
        // lint: allow(no-unbounded-channel) -- the one shared reply channel: workers never block sending on it (the deadlock-freedom argument in the module docs), and its population is bounded by the coordinator's in-flight window, so a bounded channel would only add a capacity to tune without adding backpressure.
        let (reply_tx, reply_rx) = mpsc::channel::<FromShard>();
        let mut to_shard: Vec<mpsc::SyncSender<Envelope>> = Vec::with_capacity(shards);
        for s in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<Envelope>(8);
            to_shard.push(tx);
            let reply = reply_tx.clone();
            let journal_enabled = opts.journal;
            scope.spawn(move || shard_worker(s, base, &rx, &reply, journal_enabled));
        }
        drop(reply_tx);

        let n = ops.len();
        let mut outcomes: Vec<TraceOutcome> = Vec::with_capacity(n);
        let mut pending: BTreeMap<usize, OpState> = BTreeMap::new();
        let mut dispatched_at: BTreeMap<usize, usize> = BTreeMap::new();
        let mut claims: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut claimed = vec![false; shards];
        let mut ids: BTreeMap<u32, LiveConn> = BTreeMap::new();
        // Trace indices marked for a rung-1 degraded install when the
        // bounded queue forced them to wait (see ServeOptions).
        let mut degrade: BTreeSet<usize> = BTreeSet::new();
        let (mut accepted, mut rejected, mut released) = (0u64, 0u64, 0u64);
        let (mut next, mut dispatch) = (0usize, 0usize); // finalize / dispatch cursors

        while next < n {
            // Dispatch strictly in trace order while the head of the
            // undispatched suffix is eligible. Stopping at the first
            // ineligible operation (instead of skipping it) is what
            // keeps every per-shard message stream a pure function of
            // the trace.
            while dispatch < n {
                let in_flight = dispatch - next;
                if in_flight >= opts.queue_capacity {
                    // The bounded admission queue is full. Without the
                    // ladder this is pure backpressure (wait for the
                    // pipeline to drain); with it, the degradation
                    // ladder acts: rung 0 sheds the lowest SLs
                    // outright, rung 1 marks the rest for a degraded
                    // (looser-distance) install once a slot frees.
                    if opts.shed_ladder {
                        match &ops[dispatch] {
                            TraceOp::Admit(req) if req.sl.raw() < opts.shed_sl_floor => {
                                rec.serve_shed(0);
                                eng.stats.shed[0] += 1;
                                rec.serve_queue_depth(in_flight as u64);
                                rec.request_stage(
                                    dispatch as u32,
                                    request_stage::DISPATCH,
                                    0,
                                    request_stage::NO_PATH,
                                );
                                dispatched_at.insert(dispatch, next);
                                pending.insert(
                                    dispatch,
                                    OpState::Resolved(Resolution::Rejected(
                                        RejectReason::Overloaded,
                                    )),
                                );
                                dispatch += 1;
                                continue;
                            }
                            TraceOp::Admit(_) => {
                                degrade.insert(dispatch);
                                break;
                            }
                            _ => break,
                        }
                    }
                    break;
                }
                let Some(action) = plan_dispatch(
                    &ops[dispatch],
                    planner,
                    shards,
                    in_flight,
                    &claimed,
                    &mut ids,
                ) else {
                    break;
                };
                rec.serve_queue_depth(in_flight as u64);
                rec.request_stage(
                    dispatch as u32,
                    request_stage::DISPATCH,
                    0,
                    request_stage::NO_PATH,
                );
                dispatched_at.insert(dispatch, next);
                let op = dispatch;
                match action {
                    Dispatch::Local(res) => {
                        pending.insert(op, OpState::Resolved(res));
                    }
                    Dispatch::Admit {
                        rid,
                        mut spec,
                        path,
                        participants,
                    } => {
                        if degrade.remove(&op) {
                            // Rung 1: the queue forced this admission
                            // to wait; install it at one looser
                            // distance step so it costs less table
                            // bandwidth.
                            if let Some(looser) = spec.distance.looser() {
                                rec.serve_shed(1);
                                eng.stats.shed[1] += 1;
                                spec.distance = looser;
                            }
                        }
                        let target = participants.first().copied().unwrap_or(0);
                        for &s in &participants {
                            claimed[s] = true;
                            let hops: Vec<(usize, PortKey)> = path
                                .iter()
                                .enumerate()
                                .filter(|&(_, k)| shard_of(*k, shards) == s)
                                .map(|(i, &k)| (i, k))
                                .collect();
                            eng.send(
                                &to_shard,
                                s,
                                s == target,
                                op,
                                ToShard::Vote { op, spec, hops },
                                rec,
                            );
                        }
                        claims.insert(op, participants.clone());
                        let waiting = participants.len();
                        pending.insert(
                            op,
                            OpState::Voting {
                                rid,
                                spec,
                                path,
                                participants,
                                waiting,
                                votes: Vec::new(),
                            },
                        );
                    }
                    Dispatch::Teardown {
                        weight,
                        hops,
                        participants,
                    } => {
                        let target = participants.first().copied().unwrap_or(0);
                        for &s in &participants {
                            claimed[s] = true;
                            let mine: Vec<(usize, HopReservation)> = hops
                                .iter()
                                .enumerate()
                                .filter(|&(_, h)| {
                                    shard_of(
                                        PortKey {
                                            node: h.node,
                                            port: h.port,
                                        },
                                        shards,
                                    ) == s
                                })
                                .map(|(i, &h)| (i, h))
                                .collect();
                            eng.send(
                                &to_shard,
                                s,
                                s == target,
                                op,
                                ToShard::Release {
                                    op,
                                    weight,
                                    hops: mine,
                                },
                                rec,
                            );
                        }
                        let waiting = participants.len();
                        claims.insert(op, participants);
                        pending.insert(op, OpState::Releasing { waiting });
                    }
                    Dispatch::Repair { seed } => {
                        for (s, claim) in claimed.iter_mut().enumerate().take(shards) {
                            *claim = true;
                            eng.send(&to_shard, s, s == 0, op, ToShard::Repair { op, seed }, rec);
                        }
                        claims.insert(op, (0..shards).collect());
                        pending.insert(
                            op,
                            OpState::Repairing {
                                waiting: shards,
                                damage: 0,
                                summary: RecoverySummary::default(),
                            },
                        );
                    }
                }
                dispatch += 1;
            }

            // Wait for the oldest in-flight operation specifically;
            // replies for younger operations advance their state
            // machines as they arrive (that is the pipelining).
            while !matches!(pending.get(&next), Some(OpState::Resolved(_))) {
                let Ok(reply) = reply_rx.recv() else {
                    // A worker can only disappear by panicking; the
                    // scope join below re-raises it.
                    return drain_report(
                        planner, outcomes, ids, accepted, rejected, released, eng.stats,
                    );
                };
                if eng.intercept(&reply, &to_shard, rec) {
                    continue;
                }
                apply_reply(reply, &mut pending, &to_shard, &mut eng, rec);
            }

            // Finalize in trace order.
            if let Some(OpState::Resolved(res)) = pending.remove(&next) {
                for s in claims.remove(&next).unwrap_or_default() {
                    claimed[s] = false;
                }
                let start = dispatched_at.remove(&next).unwrap_or(next);
                rec.serve_batch_latency((next - start) as u64);
                outcomes.push(match res {
                    Resolution::Admitted {
                        rid,
                        sl,
                        weight,
                        hops,
                    } => {
                        accepted += 1;
                        rec.cac_admit(sl);
                        ids.insert(rid, LiveConn { rid, weight, hops });
                        TraceOutcome::Admitted { rid }
                    }
                    Resolution::Rejected(reason) => {
                        rejected += 1;
                        rec.cac_reject(reason.kind());
                        TraceOutcome::Rejected(reason)
                    }
                    Resolution::TornDown(torn) => {
                        if torn {
                            released += 1;
                            rec.cac_release();
                        }
                        TraceOutcome::TornDown(torn)
                    }
                    Resolution::Repaired { damage, summary } => {
                        // Repair invalidates the live handles (see
                        // TraceOp::Repair) and with them every
                        // outstanding idempotency key: bump the epoch.
                        ids.clear();
                        eng.epoch = eng.epoch.wrapping_add(1);
                        TraceOutcome::Repaired { damage, summary }
                    }
                });
                rec.request_stage(
                    next as u32,
                    request_stage::FINALIZE,
                    0,
                    request_stage::NO_PATH,
                );
                // Drain-side queue sample: depth after this operation
                // left the pipeline (the dispatch-side twin is above).
                rec.serve_queue_depth((dispatch - next - 1) as u64);
                // One logical tick per finalized operation — the clock
                // the timeline aggregator windows over; the sequential
                // reference advances the same clock per applied op.
                rec.tick((next + 1) as u64);
            }
            next += 1;
        }

        // Collect every shard's partition, recorder and journal.
        for tx in &to_shard {
            let _ = tx.send(Envelope::clean(eng.epoch, ToShard::Finish));
        }
        let mut parts: Vec<Option<PortTables>> = (0..shards).map(|_| None).collect();
        let mut shard_requests: Vec<Vec<(u64, iba_obs::TraceEvent)>> = vec![Vec::new(); shards];
        let mut journals: Vec<IntentJournal> = vec![IntentJournal::new(false); shards];
        let mut seen = 0;
        while seen < shards {
            let Ok(reply) = reply_rx.recv() else { break };
            if let FromShard::Finished {
                shard,
                tables,
                rec: worker_rec,
                journal,
            } = reply
            {
                parts[shard] = Some(*tables);
                shard_requests[shard] = drain_request_records(&worker_rec);
                rec.merge(&worker_rec);
                journals[shard] = *journal;
                seen += 1;
            }
        }
        let mut tables = base.empty_like();
        for t in parts.into_iter().flatten() {
            tables.absorb(t);
        }
        // Coordinator records first, then each shard's in shard order —
        // a deterministic concatenation regardless of reply arrival
        // order (the reassembler orders causally, not by position).
        let mut request_records = drain_request_records(rec);
        for sr in shard_requests {
            request_records.extend(sr);
        }
        ServeReport {
            outcomes,
            tables,
            accepted,
            rejected,
            released,
            live: ids.into_values().collect(),
            request_records,
            journals,
            fault_stats: eng.stats,
        }
    })
}

/// Decides whether the next trace operation can be dispatched now and,
/// if so, what to send. Returns `None` when the operation must wait:
/// admissions wait for their shard set to be unclaimed; teardowns and
/// repairs wait for an empty pipeline (their correctness depends on
/// every earlier outcome being finalized).
fn plan_dispatch(
    op: &TraceOp,
    planner: &QosManager,
    shards: usize,
    in_flight: usize,
    claimed: &[bool],
    ids: &mut BTreeMap<u32, LiveConn>,
) -> Option<Dispatch> {
    match op {
        TraceOp::Admit(req) => match planner.plan_request(req) {
            Err(e) => Some(Dispatch::Local(Resolution::Rejected(e))),
            Ok(plan) => {
                let participants = participants_of(&plan.path, shards);
                if participants.iter().any(|&s| claimed[s]) {
                    return None;
                }
                Some(Dispatch::Admit {
                    rid: req.id,
                    spec: AdmitSpec {
                        sl: req.sl,
                        vl: plan.vl,
                        distance: plan.distance,
                        weight: plan.weight,
                    },
                    path: plan.path,
                    participants,
                })
            }
        },
        TraceOp::Teardown(rid) => {
            if in_flight > 0 {
                return None;
            }
            match ids.remove(rid) {
                None => Some(Dispatch::Local(Resolution::TornDown(false))),
                Some(conn) => {
                    let keys: Vec<PortKey> = conn
                        .hops
                        .iter()
                        .map(|h| PortKey {
                            node: h.node,
                            port: h.port,
                        })
                        .collect();
                    Some(Dispatch::Teardown {
                        weight: conn.weight,
                        hops: conn.hops,
                        participants: participants_of(&keys, shards),
                    })
                }
            }
        }
        TraceOp::Repair { seed } => {
            if in_flight > 0 {
                return None;
            }
            Some(Dispatch::Repair { seed: *seed })
        }
    }
}

/// Advances one operation's state machine with a shard reply,
/// launching the commit/abort phase when the last vote lands.
fn apply_reply(
    reply: FromShard,
    pending: &mut BTreeMap<usize, OpState>,
    to_shard: &[mpsc::SyncSender<Envelope>],
    eng: &mut FaultEngine,
    rec: &mut iba_obs::ObsRecorder,
) {
    match reply {
        FromShard::Voted { op, votes: got, .. } => {
            let Some(OpState::Voting {
                rid,
                spec,
                path,
                participants,
                waiting,
                votes,
            }) = pending.get_mut(&op)
            else {
                return;
            };
            votes.extend(got);
            *waiting -= 1;
            if *waiting > 0 {
                return;
            }
            let fail_at = votes
                .iter()
                .filter(|(_, v)| v.is_err())
                .map(|&(i, _)| i)
                .min();
            let (rid, spec) = (*rid, *spec);
            let target = participants.first().copied().unwrap_or(0);
            let participants = participants.clone();
            let path = std::mem::take(path);
            match fail_at {
                None => {
                    // Unanimous yes: commit everywhere.
                    let waiting = participants.len();
                    for &s in &participants {
                        let hops: Vec<(usize, PortKey)> = path
                            .iter()
                            .enumerate()
                            .filter(|&(_, k)| shard_of(*k, to_shard.len()) == s)
                            .map(|(i, &k)| (i, k))
                            .collect();
                        eng.send(
                            to_shard,
                            s,
                            s == target,
                            op,
                            ToShard::Commit { op, spec, hops },
                            rec,
                        );
                    }
                    pending.insert(
                        op,
                        OpState::Committing {
                            rid,
                            spec,
                            waiting,
                            hops: Vec::new(),
                        },
                    );
                }
                Some(k) => {
                    // First failing hop wins; every participant replays
                    // its slice of the sequential rollback.
                    let fail_key = path[k];
                    let waiting = participants.len();
                    for &s in &participants {
                        let hops: Vec<(usize, PortKey)> = path
                            .iter()
                            .enumerate()
                            .filter(|&(_, key)| shard_of(*key, to_shard.len()) == s)
                            .map(|(i, &key)| (i, key))
                            .collect();
                        eng.send(
                            to_shard,
                            s,
                            s == target,
                            op,
                            ToShard::Abort {
                                op,
                                spec,
                                hops,
                                fail_at: k,
                            },
                            rec,
                        );
                    }
                    pending.insert(
                        op,
                        OpState::Aborting {
                            fail_key,
                            waiting,
                            error: None,
                        },
                    );
                }
            }
        }
        FromShard::Committed { op, hops: got, .. } => {
            let Some(OpState::Committing {
                rid,
                spec,
                waiting,
                hops,
            }) = pending.get_mut(&op)
            else {
                return;
            };
            hops.extend(got);
            *waiting -= 1;
            if *waiting > 0 {
                return;
            }
            hops.sort_unstable_by_key(|&(i, _)| i);
            let res = Resolution::Admitted {
                rid: *rid,
                sl: spec.sl.raw(),
                weight: spec.weight,
                hops: hops.iter().map(|&(_, h)| h).collect(),
            };
            pending.insert(op, OpState::Resolved(res));
        }
        FromShard::Aborted { op, error: got, .. } => {
            let Some(OpState::Aborting {
                fail_key,
                waiting,
                error,
            }) = pending.get_mut(&op)
            else {
                return;
            };
            if error.is_none() {
                *error = got;
            }
            *waiting -= 1;
            if *waiting > 0 {
                return;
            }
            let res = Resolution::Rejected(reject_for(*error, *fail_key));
            pending.insert(op, OpState::Resolved(res));
        }
        FromShard::Released { op, .. } => {
            let Some(OpState::Releasing { waiting }) = pending.get_mut(&op) else {
                return;
            };
            *waiting -= 1;
            if *waiting == 0 {
                pending.insert(op, OpState::Resolved(Resolution::TornDown(true)));
            }
        }
        FromShard::Repaired {
            op,
            damage: got_damage,
            summary: got,
            ..
        } => {
            let Some(OpState::Repairing {
                waiting,
                damage,
                summary,
            }) = pending.get_mut(&op)
            else {
                return;
            };
            *damage += got_damage;
            *summary += got;
            *waiting -= 1;
            if *waiting == 0 {
                let res = Resolution::Repaired {
                    damage: *damage,
                    summary: *summary,
                };
                pending.insert(op, OpState::Resolved(res));
            }
        }
        FromShard::Finished { .. } => {}
    }
}

/// Fallback report when a worker disappeared mid-trace (its panic is
/// re-raised by the thread scope as soon as this returns).
fn drain_report(
    planner: &QosManager,
    outcomes: Vec<TraceOutcome>,
    ids: BTreeMap<u32, LiveConn>,
    accepted: u64,
    rejected: u64,
    released: u64,
    fault_stats: FaultStats,
) -> ServeReport {
    ServeReport {
        outcomes,
        tables: planner.port_tables().empty_like(),
        accepted,
        rejected,
        released,
        live: ids.into_values().collect(),
        request_records: Vec::new(),
        journals: Vec::new(),
        fault_stats,
    }
}

/// Filters a recorder's ring for the per-request causal records
/// (`TraceEvent::Request`), leaving every other kind in place.
fn drain_request_records(rec: &iba_obs::ObsRecorder) -> Vec<(u64, iba_obs::TraceEvent)> {
    rec.tracer
        .as_ref()
        .map(|t| {
            t.records()
                .into_iter()
                .filter(|(_, ev)| matches!(ev, iba_obs::TraceEvent::Request { .. }))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::SlTable;
    use iba_topo::{irregular, updown};

    fn planner(seed: u64) -> QosManager {
        let topo = irregular::generate(irregular::IrregularConfig::with_switches(4, seed));
        let routing = updown::compute(&topo);
        QosManager::new(topo, routing, SlTable::paper_table1())
    }

    #[test]
    fn trace_generation_is_seeded_and_mixed() {
        let cfg = TraceConfig::new(16, 7, 200);
        let a = generate_trace(&cfg);
        let b = generate_trace(&cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same trace");
        let admits = a.iter().filter(|o| matches!(o, TraceOp::Admit(_))).count();
        let teardowns = a
            .iter()
            .filter(|o| matches!(o, TraceOp::Teardown(_)))
            .count();
        let repairs = a
            .iter()
            .filter(|o| matches!(o, TraceOp::Repair { .. }))
            .count();
        assert!(admits > 80, "{admits} admits");
        assert!(teardowns > 20, "{teardowns} teardowns");
        assert!(repairs > 3, "{repairs} repairs");
        let no_repair = generate_trace(&TraceConfig {
            repair_pct: 0,
            ..cfg
        });
        assert!(no_repair
            .iter()
            .all(|o| !matches!(o, TraceOp::Repair { .. })));
    }

    #[test]
    fn sharded_run_matches_sequential_on_one_trace() {
        let cfg = TraceConfig::new(16, 3, 96);
        let ops = generate_trace(&cfg);
        let mut seq_mgr = planner(0);
        let mut seq_rec = iba_obs::ObsRecorder::new();
        let seq = apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
        for shards in [1usize, 2, 8] {
            let p = planner(0);
            let mut rec = iba_obs::ObsRecorder::new();
            let report = run_trace(&p, &ops, shards, &mut rec);
            assert_eq!(report.outcomes, seq, "outcomes diverge at {shards} shards");
            assert_eq!(
                format!("{:?}", report.tables),
                format!("{:?}", seq_mgr.port_tables()),
                "tables diverge at {shards} shards"
            );
        }
    }

    #[test]
    fn request_records_cover_every_operation() {
        use iba_obs::{request_stage, RequestSpan};
        let cfg = TraceConfig::new(16, 5, 64);
        let ops = generate_trace(&cfg);
        let p = planner(0);
        let mut rec = iba_obs::ObsRecorder::with_tracer(1 << 16);
        let report = run_trace(&p, &ops, 4, &mut rec);

        let spans = iba_obs::reassemble(&report.request_records);
        assert_eq!(spans.len(), ops.len(), "one span per trace op");
        for (span, outcome) in spans.iter().zip(&report.outcomes) {
            let stages: Vec<u8> = span.stages.iter().map(|s| s.stage).collect();
            assert_eq!(stages[0], request_stage::DISPATCH, "rid {}", span.rid);
            assert_eq!(
                *stages.last().unwrap(),
                request_stage::FINALIZE,
                "rid {}",
                span.rid
            );
            match outcome {
                TraceOutcome::Admitted { .. } => {
                    assert!(
                        stages.contains(&request_stage::COMMIT),
                        "admitted rid {} has no commit stage",
                        span.rid
                    );
                    assert!(!span.aborted(), "admitted rid {} aborted", span.rid);
                }
                // Planner-local rejections never reach a shard, so an
                // abort stage is possible but not guaranteed here.
                TraceOutcome::Rejected(_) | TraceOutcome::TornDown(_) => {}
                TraceOutcome::Repaired { .. } => {}
            }
        }
        // At least one table-level rejection went through the
        // vote/abort protocol on this trace.
        assert!(
            spans.iter().any(RequestSpan::aborted),
            "trace exercised no abort path"
        );

        // The record stream is a pure function of the trace: same
        // trace, same shards, same records.
        let p2 = planner(0);
        let mut rec2 = iba_obs::ObsRecorder::with_tracer(1 << 16);
        let report2 = run_trace(&p2, &ops, 4, &mut rec2);
        assert_eq!(report.request_records, report2.request_records);
    }

    #[test]
    fn keyed_corruption_is_registry_independent() {
        // The same port must receive the same damage whether its table
        // sits alone in a registry or among others — the property that
        // makes shard-local repair match the sequential pass.
        let mk = |keys: &[PortKey]| {
            let mut pt = PortTables::new(0.8);
            for &k in keys {
                pt.admit_path(
                    &[k],
                    ServiceLevel::new(2).unwrap(),
                    VirtualLane::data(2),
                    Distance::D16,
                    40,
                )
                .ok();
            }
            pt
        };
        let a = PortKey {
            node: iba_sim::NodeId::Switch(0),
            port: 1,
        };
        let b = PortKey {
            node: iba_sim::NodeId::Switch(5),
            port: 3,
        };
        let mut both = mk(&[a, b]);
        let mut alone = mk(&[a]);
        corrupt_tables_keyed(&mut both, 42);
        corrupt_tables_keyed(&mut alone, 42);
        assert_eq!(
            format!("{:?}", both.table(a)),
            format!("{:?}", alone.table(a)),
        );
    }

    #[test]
    fn faulted_run_converges_to_sequential_at_any_shard_count() {
        let cfg = TraceConfig::new(16, 11, 96);
        let ops = generate_trace(&cfg);
        let plan = ServeFaultPlan::generate(11, &ops, 30);
        assert!(!plan.is_empty(), "plan injected nothing");
        let mut seq_mgr = planner(0);
        let mut seq_rec = iba_obs::ObsRecorder::new();
        let seq = apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
        let mut stats: Option<FaultStats> = None;
        for shards in [1usize, 2, 8] {
            let p = planner(0);
            let mut rec = iba_obs::ObsRecorder::new();
            let report =
                run_trace_faulted(&p, &ops, shards, &plan, &ServeOptions::default(), &mut rec);
            assert_eq!(
                report.outcomes, seq,
                "faulted outcomes diverge at {shards} shards"
            );
            assert_eq!(
                format!("{:?}", report.tables),
                format!("{:?}", seq_mgr.port_tables()),
                "faulted tables diverge at {shards} shards"
            );
            // Consumed-fault counts target the lowest participant
            // shard, so they are a pure function of the trace + plan.
            match stats {
                None => stats = Some(report.fault_stats),
                Some(prev) => assert_eq!(
                    report.fault_stats, prev,
                    "fault stats diverge at {shards} shards"
                ),
            }
        }
        let stats = stats.unwrap();
        assert!(stats.crashes > 0, "plan exercised no crash: {stats:?}");
        assert!(stats.timeouts > 0, "plan exercised no timeout: {stats:?}");
    }

    #[test]
    fn crash_at_every_protocol_step_converges_with_journal() {
        // One deterministic crash per (phase, crash point) pair against
        // the same trace: the journal must absorb each of them.
        let cfg = TraceConfig::new(16, 3, 64);
        let ops = generate_trace(&cfg);
        let mut seq_mgr = planner(0);
        let mut seq_rec = iba_obs::ObsRecorder::new();
        let seq = apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
        let seq_tables = format!("{:?}", seq_mgr.port_tables());
        let phases = [
            ProtocolPhase::Vote,
            ProtocolPhase::Commit,
            ProtocolPhase::Abort,
            ProtocolPhase::Release,
            ProtocolPhase::Repair,
        ];
        let points = [
            CrashPoint::BeforeAct,
            CrashPoint::MidBatch,
            CrashPoint::BeforeReply,
        ];
        for phase in phases {
            for point in points {
                let faults = ops
                    .iter()
                    .enumerate()
                    .map(|(i, _)| ServeFault {
                        op: i as u32,
                        phase,
                        kind: ServeFaultKind::Crash(point),
                    })
                    .collect();
                let plan = ServeFaultPlan { seed: 0, faults };
                let p = planner(0);
                let mut rec = iba_obs::ObsRecorder::new();
                let report =
                    run_trace_faulted(&p, &ops, 2, &plan, &ServeOptions::default(), &mut rec);
                assert_eq!(
                    report.outcomes, seq,
                    "outcomes diverge crashing at {phase:?}/{point:?}"
                );
                assert_eq!(
                    format!("{:?}", report.tables),
                    seq_tables,
                    "tables diverge crashing at {phase:?}/{point:?}"
                );
                assert!(
                    report.fault_stats.crashes > 0,
                    "no crash consumed at {phase:?}/{point:?}"
                );
            }
        }
    }

    #[test]
    fn journal_disabled_crash_loses_state() {
        // Negative control: the same crash that the journal absorbs
        // must corrupt the run when the journal is off. Crash after a
        // commit is applied but before its reply, on every operation —
        // the wiped shard forgets its reservations.
        let cfg = TraceConfig::new(16, 3, 64);
        let ops = generate_trace(&cfg);
        let mut seq_mgr = planner(0);
        let mut seq_rec = iba_obs::ObsRecorder::new();
        let _ = apply_trace_sequential(&mut seq_mgr, &ops, &mut seq_rec);
        let faults = ops
            .iter()
            .enumerate()
            .map(|(i, _)| ServeFault {
                op: i as u32,
                phase: ProtocolPhase::Commit,
                kind: ServeFaultKind::Crash(CrashPoint::BeforeReply),
            })
            .collect();
        let plan = ServeFaultPlan { seed: 0, faults };
        let opts = ServeOptions {
            journal: false,
            ..ServeOptions::default()
        };
        let p = planner(0);
        let mut rec = iba_obs::ObsRecorder::new();
        let report = run_trace_faulted(&p, &ops, 2, &plan, &opts, &mut rec);
        assert!(report.fault_stats.crashes > 0, "no crash consumed");
        assert_ne!(
            format!("{:?}", report.tables),
            format!("{:?}", seq_mgr.port_tables()),
            "journal-disabled crashes must lose reservations"
        );
    }

    #[test]
    fn shed_ladder_sheds_low_sls_and_degrades_the_rest() {
        let cfg = TraceConfig::new(16, 9, 128);
        let ops = generate_trace(&cfg);
        let opts = ServeOptions {
            queue_capacity: 1,
            shed_ladder: true,
            shed_sl_floor: 4,
            ..ServeOptions::default()
        };
        let p = planner(0);
        let mut rec = iba_obs::ObsRecorder::new();
        let report = run_trace_faulted(&p, &ops, 2, &ServeFaultPlan::none(), &opts, &mut rec);
        assert_eq!(report.outcomes.len(), ops.len());
        let overloaded = report
            .outcomes
            .iter()
            .filter(|o| matches!(o, TraceOutcome::Rejected(RejectReason::Overloaded)))
            .count() as u64;
        assert!(overloaded > 0, "ladder never shed");
        assert_eq!(report.fault_stats.shed[0], overloaded);
        assert!(
            report.fault_stats.shed[1] > 0,
            "ladder never degraded an install"
        );
        // Ladder decisions depend only on the trace: byte-identical at
        // another shard count.
        let p2 = planner(0);
        let mut rec2 = iba_obs::ObsRecorder::new();
        let report2 = run_trace_faulted(&p2, &ops, 8, &ServeFaultPlan::none(), &opts, &mut rec2);
        assert_eq!(report.outcomes, report2.outcomes);
        assert_eq!(report.fault_stats, report2.fault_stats);
        assert_eq!(
            format!("{:?}", report.tables),
            format!("{:?}", report2.tables)
        );
    }

    #[test]
    fn journals_record_and_replay_each_shard() {
        let cfg = TraceConfig::new(16, 5, 48);
        let ops = generate_trace(&cfg);
        let plan = ServeFaultPlan::generate(5, &ops, 25);
        let p = planner(0);
        let mut rec = iba_obs::ObsRecorder::new();
        let report = run_trace_faulted(&p, &ops, 2, &plan, &ServeOptions::default(), &mut rec);
        assert_eq!(report.journals.len(), 2);
        assert!(
            report.journals.iter().any(|j| !j.is_empty()),
            "no shard journaled anything"
        );
        for j in &report.journals {
            assert!(
                j.dangling().is_none(),
                "journal left a dangling intent: {:?}",
                j.dangling()
            );
        }
    }
}
