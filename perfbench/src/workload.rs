//! The four workloads and the pipeline each one drives.
//!
//! Every layer is called from here through its public functions and
//! timed around the call: `topo` (`irregular::generate`,
//! `updown::compute`), `qos` (`QosFrame::fill`,
//! `service::apply_trace_sequential`, `service::run_trace`), `sim`
//! (`QosFrame::build_fabric`, `Fabric::run_until` /
//! `run_until_recorded`) and `stats` (the `QosObserver` behind the
//! `Observer` trait).
//!
//! A run covers [`Scale::instances`] independent instances — each a
//! fabric of its own, with its own traffic or trace — derived from the
//! run's seed; instance 0 uses the seed itself. Totals over the
//! instances are what the metrics report, so one irregular topology
//! that happens to be cheap or expensive moves a run's figures less.
//! Each instance's timing is its fastest repetition in the run (see
//! [`crate::stats::fastest`]); set-up times are medians.
//!
//! Fabric workloads assemble the same pipeline as
//! `iba_harness::run_measured` (same sub-seeds, same transient and
//! steady windows) and check instance 0's delivery digest against it,
//! so the benchmark measures the program the paper's figures run.

use crate::catalog::Values;
use crate::probe::{now, BenchObserver, OpClock, TimedRecorder, EVENT_SAMPLE_EVERY};
use crate::stats::{debug_digest, fastest, median, ratio, Hist};
use iba_core::SlTable;
use iba_obs::{NullRecorder, ObsRecorder};
use iba_qos::service::{
    apply_trace_sequential, generate_trace, run_trace, TraceConfig, TraceOp, TraceOutcome,
};
use iba_qos::{FillReport, QosFrame, QosManager};
use iba_sim::SimConfig;
use iba_topo::irregular::{generate, IrregularConfig};
use iba_topo::updown;
use iba_traffic::besteffort::BackgroundConfig;
use iba_traffic::{RequestGenerator, WorkloadConfig};
use std::time::{Duration, Instant};

/// The seed the benchmark's figures are quoted at.
pub const DEFAULT_SEED: u64 = 42;
/// A seed kept out of tuning, for checking a claimed gain.
pub const HELD_OUT_SEED: u64 = 1_000_003;

/// Sub-seed of the fill's request stream (`iba_harness` uses the same).
const FILL_SEED: u64 = 0xF00D;
/// Sub-seed of the CBR flow phases (`iba_harness` uses the same).
const PHASE_SEED: u64 = 0xABCD;
/// Odd multiplier spacing the instance seeds of one run.
const INSTANCE_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;
/// Consecutive rejections that end the fill (the figures' default).
pub const REJECT_LIMIT: u32 = 120;
/// Upper bound on fill attempts (the harness's bound).
const MAX_FILL_ATTEMPTS: u32 = 100_000;
/// Shards of the admission service: one worker plus the coordinator,
/// two threads, within a two-CPU machine.
pub const SERVE_SHARDS: usize = 1;
/// Least number of simulation rounds a fabric run makes; each
/// simulates every instance once, and every round after the first
/// must reproduce it.
const MIN_SIM_ROUNDS: usize = 2;
/// Share of a fabric run's time spent replaying fill prefixes and
/// repeating set-ups before the simulations.
const FABRIC_REPLAY_SHARE: f64 = 0.2;
/// Requests of each fill that fabric runs replay and serve. A whole
/// fill (up to 100 000 requests, mostly rejections once the tables
/// saturate) takes seconds through the service and ~90 MB, which would
/// swamp the simulation's footprint in `peak_rss_mb`; a fixed prefix is
/// also the same amount of work on every seed.
const FILL_REPLAY_OPS: usize = 8192;
/// Least number of replay rounds a run makes.
const MIN_REPLAY_ROUNDS: usize = 3;
/// Sequential replays of each trace per round: one takes a few
/// milliseconds, so several per round give it more chances to run
/// undisturbed.
const SEQ_PASSES: usize = 3;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 16 switches, MTU 4096, Table-1 fill, best-effort background.
    FabricMtu4096Bg,
    /// 16 switches, MTU 256, QoS traffic only.
    FabricMtu256Qos,
    /// Admit/teardown trace, no repair drills.
    CacChurn,
    /// Admit/teardown trace with 8% corrupt+repair drills.
    CacRepair,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::FabricMtu4096Bg,
        Workload::FabricMtu256Qos,
        Workload::CacChurn,
        Workload::CacRepair,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order. Between them
    /// they drive every layer; the other two run only by hand, which
    /// leaves these two runs long enough to repeat on a shared host.
    pub const GATED: [Workload; 2] = [Workload::FabricMtu4096Bg, Workload::CacRepair];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricMtu4096Bg => "fabric_mtu4096_bg",
            Workload::FabricMtu256Qos => "fabric_mtu256_qos",
            Workload::CacChurn => "cac_churn",
            Workload::CacRepair => "cac_repair",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size. [`Scale::PAPER`] is what the benchmark runs; tests
/// use smaller fabrics.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Switches in each irregular fabric (4 hosts each).
    pub switches: usize,
    /// Independent instances per run.
    pub instances: usize,
    /// `fabric_mtu4096_bg`'s steady state runs until the slowest
    /// connection emitted this many packets.
    pub bg_steady_packets: u64,
    /// The same for `fabric_mtu256_qos`.
    pub qos_steady_packets: u64,
    /// Operations in each CAC trace.
    pub trace_len: usize,
}

impl Scale {
    /// The paper's 16-switch fabric. The steady windows are shorter
    /// than the figures' 30 packets so that a run fits its time: the
    /// saturated background backlog grows with simulated time, and at
    /// 30 packets one MTU-4096 simulation takes 20 s and 380 MB.
    pub const PAPER: Scale = Scale {
        switches: 16,
        instances: 4,
        bg_steady_packets: 1,
        qos_steady_packets: 2,
        trace_len: 8192,
    };
}

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Wall-clock budget of the measured phases.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
}

/// What a run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values (end-to-end or per-layer, by `Options::trace`).
    pub values: Values,
    /// Operations checked: simulations plus served trace operations.
    pub attempted: u64,
    /// Checked operations whose result was wrong.
    pub failed: u64,
    /// Every correctness violation, in words.
    pub problems: Vec<String>,
    /// The simulated statistics of the run (digests, counts), equal on
    /// every run of the same seed and workload.
    pub signature: String,
    /// Per-round timings behind the figures, for the human-readable
    /// part of the report.
    pub rounds: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Counts one checked operation, failed unless `ok`.
    fn count(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// Runs one workload.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    let s = &opts.scale;
    match opts.workload {
        Workload::FabricMtu4096Bg => run_fabric(opts, 4096, true, s.bg_steady_packets),
        Workload::FabricMtu256Qos => run_fabric(opts, 256, false, s.qos_steady_packets),
        Workload::CacChurn => run_cac(opts, 0),
        Workload::CacRepair => run_cac(opts, TraceConfig::new(2, 0, 0).repair_pct),
    }
}

/// The seeds of a run's instances; instance 0 uses `seed` itself.
#[must_use]
pub fn instance_seeds(seed: u64, instances: usize) -> Vec<u64> {
    (0..instances.max(1) as u64)
        .map(|i| seed.wrapping_add(i.wrapping_mul(INSTANCE_SPREAD)))
        .collect()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The sum over items of `fold` over each item's values, where
/// `rounds[r][i]` is item `i`'s value in round `r`. Rounds after the
/// first may stop short of the last items.
fn sum_over_items<T>(rounds: &[Vec<T>], f: impl Fn(&T) -> f64, fold: fn(&[f64]) -> f64) -> f64 {
    let items = rounds.first().map_or(0, Vec::len);
    (0..items)
        .map(|i| {
            fold(
                &rounds
                    .iter()
                    .filter_map(|r| r.get(i))
                    .map(&f)
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// The sum over items of each item's median over rounds (set-ups).
fn sum_of_medians<T>(rounds: &[Vec<T>], f: impl Fn(&T) -> f64) -> f64 {
    sum_over_items(rounds, f, median)
}

/// The sum over items of each item's fastest round (measured work).
fn sum_of_fastest<T>(rounds: &[Vec<T>], f: impl Fn(&T) -> f64) -> f64 {
    sum_over_items(rounds, f, fastest)
}

/// Wall times of one topology + routing build.
#[derive(Clone, Copy, Debug, Default)]
struct TopoTimes {
    generate_s: f64,
    updown_s: f64,
}

fn build_manager(switches: usize, seed: u64) -> (QosManager, TopoTimes) {
    let t = now();
    let topo = generate(IrregularConfig::with_switches(switches, seed));
    let generate_s = secs(t.elapsed());
    let t = now();
    let routing = updown::compute(&topo);
    let updown_s = secs(t.elapsed());
    let mgr = QosManager::new(topo, routing, SlTable::paper_table1());
    (
        mgr,
        TopoTimes {
            generate_s,
            updown_s,
        },
    )
}

fn topo_metrics(rounds: &[Vec<TopoTimes>], v: &mut Values) {
    v.set("topo.generate_s", sum_of_medians(rounds, |t| t.generate_s));
    v.set("topo.updown_s", sum_of_medians(rounds, |t| t.updown_s));
}

// ---------------------------------------------------------------------
// Trace replay: sequential manager vs admission service
// ---------------------------------------------------------------------

/// One trace to replay.
struct Case<'a> {
    /// Topology, routing and empty tables the trace starts from.
    planner: &'a QosManager,
    ops: &'a [TraceOp],
}

/// Replays a set of traces round by round, checking every replay.
struct Replayer<'a> {
    cases: Vec<Case<'a>>,
    traced: bool,
    /// What each case's first sequential replay produced.
    reference: Vec<Option<Reference>>,
    r: Replays,
}

/// What the trace replays of one run measured. Timings are kept as
/// rows of one value per case (`seq_s[row][case]`), so each case's
/// fastest repetition is found among its own repetitions.
#[derive(Debug, Default)]
struct Replays {
    seq_s: Vec<Vec<f64>>,
    traced_seq_s: Vec<Vec<f64>>,
    serve_s: Vec<Vec<f64>>,
    /// Operations per row: every case's trace once.
    ops: usize,
    request_ns: Hist,
    /// The requests of the current round alone.
    round_request_ns: Hist,
    /// Each timed round's median request time, in nanoseconds.
    request_p50_ns: Vec<f64>,
    teardown_ns: Hist,
    repair_ns: Hist,
    /// Admissions over every case; probes from the traced replays.
    admissions: Admissions,
    /// Admissions accepted, per case.
    accepted: Vec<u64>,
}

impl<'a> Replayer<'a> {
    fn new(cases: Vec<Case<'a>>, traced: bool) -> Self {
        Replayer {
            r: Replays {
                ops: cases.iter().map(|c| c.ops.len()).sum(),
                ..Replays::default()
            },
            reference: vec![None; cases.len()],
            cases,
            traced,
        }
    }

    /// One round over every case: through the sequential manager with
    /// an [`OpClock`] (timed per operation), with no recorder
    /// ([`SEQ_PASSES`] times, each timed whole), in traced runs with a
    /// [`TimedRecorder`], and when `serve` through the admission
    /// service. Checks every served outcome against the sequential
    /// one, every table registry against the case's first replay, and
    /// audits every table.
    fn round(&mut self, out: &mut Outcome, serve: bool) {
        self.r.round_request_ns.clear();
        let mut seq_rows: Vec<Vec<f64>> = vec![Vec::new(); SEQ_PASSES];
        let (mut traced_row, mut serve_row) = (Vec::new(), Vec::new());
        let (mut probes, mut probe_rejects) = (0, 0);
        for (case, reference) in self.cases.iter().zip(&mut self.reference) {
            let (planner, ops) = (case.planner, case.ops);
            // The clocked replay goes first: it also warms the caches for
            // the replays timed whole, which then run alike.
            let mut clocked = planner.clone();
            let mut clock = OpClock::start(ops.len());
            let timed = apply_trace_sequential(&mut clocked, ops, &mut clock);
            for ((op, outcome), ns) in ops.iter().zip(&timed).zip(clock.op_ns()) {
                match (op, outcome) {
                    (TraceOp::Admit(_), _) => {
                        self.r.request_ns.record(ns);
                        self.r.round_request_ns.record(ns);
                    }
                    (TraceOp::Teardown(_), TraceOutcome::TornDown(true)) => {
                        self.r.teardown_ns.record(ns);
                    }
                    (TraceOp::Repair { .. }, _) => self.r.repair_ns.record(ns),
                    _ => {}
                }
            }
            let timed_tables = debug_digest(clocked.port_tables());
            drop(clocked);

            let mut last = None;
            for row in &mut seq_rows {
                let mut mgr = planner.clone();
                let t = now();
                let seq = apply_trace_sequential(&mut mgr, ops, &mut NullRecorder);
                row.push(secs(t.elapsed()));
                let tables = debug_digest(mgr.port_tables());
                if let Err(e) = mgr.port_tables().check_all() {
                    out.problems
                        .push(format!("sequential tables fail their audit: {e}"));
                }
                let seen = Reference::of(ops, &seq, tables);
                let first = *reference.get_or_insert(seen);
                out.check(seen == first, || {
                    "sequential replay is not deterministic".into()
                });
                last = Some((seq, tables));
            }
            let Some((seq, seq_tables)) = last else {
                continue;
            };

            out.check(timed == seq, || "clocked replay diverged".into());
            out.check(timed_tables == seq_tables, || {
                "clocked replay left different tables".into()
            });

            if self.traced {
                let mut probed = planner.clone();
                let mut tr = TimedRecorder::new(ObsRecorder::new(), EVENT_SAMPLE_EVERY);
                let t = now();
                let traced_out = apply_trace_sequential(&mut probed, ops, &mut tr);
                traced_row.push(secs(t.elapsed()));
                probes += tr.inner.metrics.alloc_probe.get();
                probe_rejects += tr.inner.metrics.alloc_probe_rejected.get();
                out.check(traced_out == seq, || {
                    "traced sequential replay diverged from the untraced one".into()
                });
                out.check(debug_digest(probed.port_tables()) == seq_tables, || {
                    "traced sequential replay left different tables".into()
                });
            }

            if !serve {
                continue;
            }
            let mut rec = ObsRecorder::new();
            let t = now();
            let served = run_trace(planner, ops, SERVE_SHARDS, &mut rec);
            serve_row.push(secs(t.elapsed()));
            let diverged = (0..seq.len())
                .filter(|&i| served.outcomes.get(i) != Some(&seq[i]))
                .count();
            out.attempted += seq.len() as u64;
            out.failed += diverged as u64;
            out.check(diverged == 0 && served.outcomes.len() == seq.len(), || {
                format!("{diverged} served outcomes differ from the sequential manager's")
            });
            out.check(debug_digest(&served.tables) == seq_tables, || {
                "served tables differ from the sequential manager's".into()
            });
            if let Err(e) = served.tables.check_all() {
                out.problems
                    .push(format!("served tables fail their audit: {e}"));
            }
        }
        let r = &mut self.r;
        r.seq_s.extend(seq_rows);
        if self.traced {
            r.traced_seq_s.push(traced_row);
            (r.admissions.probes, r.admissions.probe_rejects) = (probes, probe_rejects);
        }
        if serve {
            r.serve_s.push(serve_row);
        }
        if let Some(p50) = r.round_request_ns.percentile(50.0).value {
            r.request_p50_ns.push(p50);
        }
    }

    /// A first round, checked but not timed: every trace goes through
    /// the admission service here, and later rounds serve it again only
    /// in traced runs, the ones that report the service's timings. The
    /// round also faults in the memory the replays use; timing it made
    /// a run's first round up to half slower than the rest.
    fn warm_up(&mut self, out: &mut Outcome) {
        self.round(out, true);
        self.r.clear_timings();
    }

    /// One timed round.
    fn timed_round(&mut self, out: &mut Outcome) {
        self.round(out, self.traced);
    }

    /// Timed rounds until `deadline`, and at least
    /// [`MIN_REPLAY_ROUNDS`] of them, each after a call of `before`.
    fn run_until(&mut self, deadline: Instant, out: &mut Outcome, mut before: impl FnMut()) {
        for round in 0.. {
            if round >= MIN_REPLAY_ROUNDS && now() >= deadline {
                break;
            }
            before();
            self.timed_round(out);
        }
    }

    fn finish(self) -> Replays {
        let mut r = self.r;
        for reference in self.reference.iter().flatten() {
            r.admissions.admits += reference.admits;
            r.admissions.accepted += reference.accepted;
            r.accepted.push(reference.accepted);
        }
        r
    }
}

impl Replays {
    fn clear_timings(&mut self) {
        for rows in [&mut self.seq_s, &mut self.traced_seq_s, &mut self.serve_s] {
            rows.clear();
        }
        self.request_p50_ns.clear();
        for hist in [
            &mut self.request_ns,
            &mut self.teardown_ns,
            &mut self.repair_ns,
        ] {
            hist.clear();
        }
    }
}

/// Digests and counts of one sequential replay: every later replay of
/// the same trace must reproduce them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Reference {
    outcomes: u64,
    tables: u64,
    admits: u64,
    accepted: u64,
}

impl Reference {
    fn of(ops: &[TraceOp], outcomes: &[TraceOutcome], tables: u64) -> Self {
        let admits = ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Admit(_)))
            .count();
        let accepted = outcomes
            .iter()
            .filter(|o| matches!(o, TraceOutcome::Admitted { .. }))
            .count();
        Reference {
            outcomes: debug_digest(outcomes),
            tables,
            admits: admits as u64,
            accepted: accepted as u64,
        }
    }
}

/// Formats per-round totals for the report.
fn round_line<T>(name: &str, rows: &[Vec<T>], f: impl Fn(&T) -> f64) -> String {
    let v: Vec<String> = rows
        .iter()
        .map(|row| format!("{:.4}", row.iter().map(&f).sum::<f64>()))
        .collect();
    format!("{name} per round: [{}]", v.join(", "))
}

/// Formats each item's fastest round for the report.
fn item_line<T>(name: &str, rows: &[Vec<T>], f: impl Fn(&T) -> f64) -> String {
    let items = rows.first().map_or(0, Vec::len);
    let v: Vec<String> = (0..items)
        .map(|i| {
            let reps: Vec<f64> = rows.iter().filter_map(|r| r.get(i)).map(&f).collect();
            format!("{:.4} ({} reps)", fastest(&reps), reps.len())
        })
        .collect();
    format!("{name} fastest per instance: [{}]", v.join(", "))
}

/// Admission outcomes and allocator probes over a set of traces.
#[derive(Clone, Copy, Debug, Default)]
struct Admissions {
    admits: u64,
    accepted: u64,
    probes: u64,
    probe_rejects: u64,
}

impl Admissions {
    fn record(&self, v: &mut Values) {
        let (admits, accepted) = (self.admits as f64, self.accepted as f64);
        v.set("qos.reject_share", ratio(admits - accepted, admits));
        v.set(
            "core.alloc_probes_per_request",
            ratio(self.probes as f64, admits),
        );
        v.set(
            "core.alloc_probe_reject_share",
            ratio(self.probe_rejects as f64, self.probes as f64),
        );
    }
}

/// Records the replay metrics shared by every workload.
fn replay_metrics(r: &Replays, trace: bool, out: &mut Outcome) {
    out.rounds.push(round_line("seq_s", &r.seq_s, |x| *x));
    if trace {
        out.rounds.push(round_line("serve_s", &r.serve_s, |x| *x));
    }
    let p50s: Vec<String> = r.request_p50_ns.iter().map(|ns| format!("{ns}")).collect();
    out.rounds
        .push(format!("request_ns_p50 per round: [{}]", p50s.join(", ")));
    let v = &mut out.values;
    let seq = sum_of_fastest(&r.seq_s, |x| *x);
    let serve = sum_of_fastest(&r.serve_s, |x| *x);
    if trace {
        v.set("qos.seq_trace_s", seq);
        v.set("qos.seq_ops_per_s", ratio(r.ops as f64, seq));
        v.set("qos.serve_trace_s", serve);
        v.set("qos.serve_ops_per_s", ratio(r.ops as f64, serve));
        v.set("qos.serve_over_seq", ratio(serve, seq));
        v.set("qos.request_samples", r.request_ns.len() as f64);
        v.set(
            "qos.request_us_p99",
            r.request_ns.percentile(99.0).or_zero() / 1e3,
        );
        v.set(
            "qos.teardown_us_p50",
            r.teardown_ns.percentile(50.0).or_zero() / 1e3,
        );
        v.set("qos.teardown_samples", r.teardown_ns.len() as f64);
        v.set(
            "qos.repair_ms_p50",
            r.repair_ns.percentile(50.0).or_zero() / 1e6,
        );
        v.set("qos.repair_samples", r.repair_ns.len() as f64);
    } else {
        // The median request of each round, in the round that ran
        // fastest: like a repetition's time, a round's median moves
        // with the host's load, not with the trace.
        v.set("request_us_p50", fastest(&r.request_p50_ns) / 1e3);
    }
}

// ---------------------------------------------------------------------
// CAC workloads
// ---------------------------------------------------------------------

/// Per-layer metrics a CAC workload does not exercise.
const CAC_IDLE: &[&str] = &[
    "qos.fill_s",
    "qos.fill_attempts",
    "qos.fill_accepted",
    "sim.build_s",
    "core.schedule_compiles_steady",
    "sim.warmup_s",
    "sim.steady_s",
    "sim.events",
    "sim.ns_per_event",
    "sim.event_ns_p50",
    "sim.event_ns_p99",
    "sim.event_samples",
    "sim.event_queue_depth_p99",
    "sim.pool_peak_packets",
    "sim.arb_grants",
    "sim.hol_stalls_per_grant",
    "sim.low_bytes_share",
    "sim.events_per_delivery",
    "stats.deliveries",
    "stats.observer_ns_per_delivery",
];

fn run_cac(opts: &Options, repair_pct: u8) -> Outcome {
    let mut out = Outcome::default();
    let start = now();
    let seeds = instance_seeds(opts.seed, opts.scale.instances);
    // One set-up of every instance: its manager and trace, and what
    // building them cost.
    let set_up = || -> Vec<(QosManager, Vec<TraceOp>, TopoTimes, f64)> {
        seeds
            .iter()
            .map(|&seed| {
                let t = now();
                let (mgr, tt) = build_manager(opts.scale.switches, seed);
                let ops = generate_trace(&TraceConfig {
                    hosts: mgr.topology().num_hosts() as u16,
                    len: opts.scale.trace_len,
                    seed,
                    repair_pct,
                });
                (mgr, ops, tt, secs(t.elapsed()))
            })
            .collect()
    };
    let mut setup_s: Vec<Vec<f64>> = Vec::new();
    let mut topo_rounds: Vec<Vec<TopoTimes>> = Vec::new();
    let mut trace_digests = Vec::new();
    let mut record = |instances: &[(QosManager, Vec<TraceOp>, TopoTimes, f64)]| {
        setup_s.push(instances.iter().map(|i| i.3).collect());
        topo_rounds.push(instances.iter().map(|i| i.2).collect());
        trace_digests.push(debug_digest(
            &instances.iter().map(|i| &i.1).collect::<Vec<_>>(),
        ));
    };
    let first = set_up();
    record(&first);
    let built: Vec<(QosManager, Vec<TraceOp>)> =
        first.into_iter().map(|(m, ops, _, _)| (m, ops)).collect();

    let cases: Vec<Case> = built
        .iter()
        .map(|(planner, ops)| Case { planner, ops })
        .collect();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let mut replayer = Replayer::new(cases, opts.trace);
    replayer.warm_up(&mut out);
    // One more set-up before each timed round, so that the set-up
    // repetitions are spread over the whole run.
    replayer.run_until(deadline, &mut out, || record(&set_up()));
    let r = replayer.finish();
    out.check(trace_digests.iter().all(|&d| d == trace_digests[0]), || {
        "trace generation is not deterministic".into()
    });
    out.signature = format!(
        "ops={} admits={} accepted={:?}",
        r.ops, r.admissions.admits, r.accepted
    );

    replay_metrics(&r, opts.trace, &mut out);
    let v = &mut out.values;
    if opts.trace {
        topo_metrics(&topo_rounds, v);
        r.admissions.record(v);
        for name in CAC_IDLE {
            v.set(name, 0.0);
        }
        let traced = sum_of_fastest(&r.traced_seq_s, |x| *x);
        let plain = sum_of_fastest(&r.seq_s, |x| *x);
        v.set(
            "obs.trace_overhead_pct",
            100.0 * (ratio(traced, plain) - 1.0),
        );
    } else {
        v.set("setup_s", sum_of_medians(&setup_s, |x| *x));
        v.set("run_s", sum_of_fastest(&r.seq_s, |x| *x));
        v.set("peak_rss_mb", peak_rss_mb());
    }
    out
}

// ---------------------------------------------------------------------
// Fabric workloads
// ---------------------------------------------------------------------

/// What one fabric set-up admitted and cost.
#[derive(Clone, Copy, Debug)]
struct SetupCost {
    fill: FillReport,
    topo: TopoTimes,
    fill_s: f64,
    build_s: f64,
    total_s: f64,
}

/// Topology, routing, fill to saturation and one fabric build — the
/// set-up `iba_harness::build_experiment_sized` performs, timed per
/// layer. Returns the filled frame, ready to simulate.
fn setup_fabric(switches: usize, mtu: u32, background: bool, seed: u64) -> (QosFrame, SetupCost) {
    let total = now();
    let (planner, topo_times) = build_manager(switches, seed);
    let t = now();
    let topo = planner.topology().clone();
    let mut frame = QosFrame::with_manager(planner, SimConfig::paper_default(mtu));
    let mut gen = RequestGenerator::new(
        &topo,
        &SlTable::paper_table1(),
        &WorkloadConfig::new(mtu, seed ^ FILL_SEED),
    );
    let fill = frame.fill(&mut gen, REJECT_LIMIT, MAX_FILL_ATTEMPTS);
    let fill_s = secs(t.elapsed());
    let bg = background.then(BackgroundConfig::default);
    let t = now();
    let built = frame.build_fabric(seed ^ PHASE_SEED, bg.as_ref());
    let build_s = secs(t.elapsed());
    drop(built);
    let cost = SetupCost {
        fill,
        topo: topo_times,
        fill_s,
        build_s,
        total_s: secs(total.elapsed()),
    };
    (frame, cost)
}

/// The fill's request stream as an admission trace: the first
/// `attempts` requests of the generator `QosFrame::fill` consumed.
fn fill_trace(manager: &QosManager, mtu: u32, seed: u64, attempts: u32) -> Vec<TraceOp> {
    let mut gen = RequestGenerator::new(
        manager.topology(),
        &SlTable::paper_table1(),
        &WorkloadConfig::new(mtu, seed ^ FILL_SEED),
    );
    (0..attempts)
        .map(|_| TraceOp::Admit(gen.next_request()))
        .collect()
}

/// Hook-level measurements of one traced simulation.
#[derive(Debug, Default)]
struct SimProbes {
    event_ns: Hist,
    queue_depth: Hist,
    grants: u64,
    hol_stalls: u64,
    low_bytes: u64,
    all_bytes: u64,
    deliveries: u64,
    observer_ns: u64,
    observer_samples: u64,
}

/// One simulation: transient, then the steady window.
#[derive(Debug)]
struct SimRun {
    warmup_s: f64,
    steady_s: f64,
    digest: u64,
    deliveries: u64,
    events: u64,
    pool_peak: usize,
    compiles_steady: u64,
    signature: String,
    probes: Option<SimProbes>,
}

impl SimRun {
    fn run_s(&self) -> f64 {
        self.warmup_s + self.steady_s
    }
}

/// Simulates a filled frame the way `iba_harness::run_measured` does:
/// run the transient (twice the slowest interarrival time), reset the
/// statistics, then run the steady window with a digesting observer.
/// Traced runs record both phases through a [`TimedRecorder`] around an
/// [`ObsRecorder`] and a timed observer.
fn simulate(
    frame: &QosFrame,
    background: bool,
    seed: u64,
    steady_packets: u64,
    traced: bool,
) -> SimRun {
    let bg = background.then(BackgroundConfig::default);
    let (mut fabric, mut obs) = frame.build_fabric(seed ^ PHASE_SEED, bg.as_ref());
    let compiles = fabric.schedule_compiles();
    let transient = frame.steady_state_cycles(1) * 2;
    let end = transient + frame.steady_state_cycles(steady_packets);

    let (warmup_s, steady_s, digest, deliveries, probes);
    if traced {
        let mut rec = TimedRecorder::new(ObsRecorder::new(), EVENT_SAMPLE_EVERY);
        let mut warm = BenchObserver::<true>::new(&mut obs);
        let t = now();
        fabric.run_until_recorded(transient, &mut warm, &mut rec);
        warmup_s = secs(t.elapsed());
        let (warm_deliveries, warm_ns, warm_samples) =
            (warm.deliveries, warm.sampled_ns, warm.sampled);
        obs.reset_samples();
        fabric.reset_stats();
        let mut steady = BenchObserver::<true>::new(&mut obs);
        let t = now();
        fabric.run_until_recorded(end, &mut steady, &mut rec);
        steady_s = secs(t.elapsed());
        digest = steady.digest;
        deliveries = steady.deliveries;
        let m = &rec.inner.metrics;
        probes = Some(SimProbes {
            event_ns: rec.event_ns.clone(),
            queue_depth: rec.queue_depth.clone(),
            grants: m.arb_grant.0.iter().map(|c| c.get()).sum(),
            hol_stalls: m.arb_hol_stall.0.iter().map(|c| c.get()).sum(),
            low_bytes: m.arb_low_bytes.get(),
            all_bytes: m.arb_low_bytes.get() + m.arb_high_bytes.get() + m.arb_vl15_bytes.get(),
            deliveries: warm_deliveries + steady.deliveries,
            observer_ns: warm_ns + steady.sampled_ns,
            observer_samples: warm_samples + steady.sampled,
        });
    } else {
        let t = now();
        fabric.run_until(transient, &mut obs);
        warmup_s = secs(t.elapsed());
        obs.reset_samples();
        fabric.reset_stats();
        let mut steady = BenchObserver::<false>::new(&mut obs);
        let t = now();
        fabric.run_until(end, &mut steady);
        steady_s = secs(t.elapsed());
        digest = steady.digest;
        deliveries = steady.deliveries;
        probes = None;
    }
    let stats = fabric.summarize();
    let events = fabric.events_processed();
    let pool_peak = fabric.pool_usage().1;
    let signature = format!(
        "digest={digest:016x} deliveries={deliveries} events={events} pool_peak={pool_peak} \
         stats={stats:?} qos={}/{} be={}/{} generated={}/{}",
        obs.qos_packets,
        obs.qos_bytes,
        obs.be_packets,
        obs.be_bytes,
        obs.qos_generated_packets,
        obs.qos_generated_bytes,
    );
    SimRun {
        warmup_s,
        steady_s,
        digest,
        deliveries,
        events,
        pool_peak,
        compiles_steady: fabric.schedule_compiles() - compiles,
        signature,
        probes,
    }
}

fn run_fabric(opts: &Options, mtu: u32, background: bool, steady_packets: u64) -> Outcome {
    let mut out = Outcome::default();
    let start = now();
    let scale = &opts.scale;
    let seeds = instance_seeds(opts.seed, scale.instances);
    let (frames, base): (Vec<QosFrame>, Vec<SetupCost>) = seeds
        .iter()
        .map(|&seed| setup_fabric(scale.switches, mtu, background, seed))
        .unzip();
    let base = &base;
    let mut setup_rounds = vec![base.clone()];

    // Each fill replayed whole, once, as an admission trace: it must
    // accept what `QosFrame::fill` accepted and leave the same tables.
    // The timed replays below use each fill's first `FILL_REPLAY_OPS`
    // requests, the same amount of work on every seed.
    let mut fills = Vec::new();
    let mut admissions = Admissions::default();
    for ((frame, s), &seed) in frames.iter().zip(base).zip(&seeds) {
        let m = &frame.manager;
        let planner = QosManager::new(
            m.topology().clone(),
            m.routing().clone(),
            SlTable::paper_table1(),
        );
        let ops = fill_trace(m, mtu, seed, s.fill.attempted);
        let mut replayed = planner.clone();
        let mut rec = ObsRecorder::new();
        let outcomes = apply_trace_sequential(&mut replayed, &ops, &mut rec);
        let seen = Reference::of(&ops, &outcomes, debug_digest(replayed.port_tables()));
        out.check(seen.accepted == u64::from(s.fill.accepted), || {
            "replayed fill accepted a different number of requests".into()
        });
        out.check(seen.tables == debug_digest(m.port_tables()), || {
            "replayed fill left different tables than QosFrame::fill".into()
        });
        admissions.admits += seen.admits;
        admissions.accepted += seen.accepted;
        admissions.probes += rec.metrics.alloc_probe.get();
        admissions.probe_rejects += rec.metrics.alloc_probe_rejected.get();
        fills.push((planner, ops));
    }
    let cases: Vec<Case> = fills
        .iter()
        .map(|(planner, ops)| {
            let ops = &ops[..ops.len().min(FILL_REPLAY_OPS)];
            Case { planner, ops }
        })
        .collect();
    // Most replays run before any simulation, the harness's included;
    // one more follows each simulation round, so that the replays'
    // fastest round is looked for over the whole run. A further set-up
    // of every instance precedes each replay round before the
    // simulations, spreading the set-up repetitions over that phase;
    // their frames are dropped at once, since holding them would add
    // their tables to `peak_rss_mb`.
    let budget = Duration::from_secs_f64(opts.seconds);
    let replay_until = now() + budget.mul_f64(FABRIC_REPLAY_SHARE);
    let mut replayer = Replayer::new(cases, opts.trace);
    replayer.warm_up(&mut out);
    replayer.run_until(replay_until, &mut out, || {
        setup_rounds.push(
            seeds
                .iter()
                .map(|&seed| setup_fabric(scale.switches, mtu, background, seed).1)
                .collect(),
        );
    });
    for round in &setup_rounds[1..] {
        let same = round.iter().zip(base).all(|(a, b)| {
            (a.fill.attempted, a.fill.accepted) == (b.fill.attempted, b.fill.accepted)
        });
        out.check(same, || "fill is not deterministic".into());
    }

    // The harness's run of instance 0: the reference that instance's
    // simulations must reproduce.
    let exp = iba_harness::build_experiment_sized(mtu, scale.switches, opts.seed, REJECT_LIMIT);
    let reference = iba_harness::run_measured(&exp, steady_packets, background);
    let fill0 = base[0].fill;
    out.check(
        (exp.fill.attempted, exp.fill.accepted) == (fill0.attempted, fill0.accepted),
        || {
            format!(
                "fill {}/{} differs from the harness's {}/{}",
                fill0.accepted, fill0.attempted, exp.fill.accepted, exp.fill.attempted
            )
        },
    );
    drop(exp);

    // Simulation rounds: every instance once per round. The first
    // `MIN_SIM_ROUNDS` are whole; a later one stops at the first
    // instance whose simulations, as long as they took last time,
    // would end past the budget.
    let mut plain: Vec<Vec<SimRun>> = Vec::new();
    let mut traced: Vec<Vec<SimRun>> = Vec::new();
    let mut took = vec![Duration::ZERO; frames.len()];
    let mut over = false;
    while !over {
        let mut round = Vec::new();
        let mut traced_round = Vec::new();
        for (i, (frame, &seed)) in frames.iter().zip(&seeds).enumerate() {
            if plain.len() >= MIN_SIM_ROUNDS && start.elapsed() + took[i] > budget {
                over = true;
                break;
            }
            let t = now();
            let run = simulate(frame, background, seed, steady_packets, false);
            let expected = match plain.first() {
                Some(first) => first[i].signature == run.signature,
                None => {
                    i != 0
                        || (run.digest, run.deliveries)
                            == (reference.delivery_digest, reference.delivery_count)
                }
            };
            out.count(expected, || {
                format!(
                    "instance {i}: simulation {:016x}/{} differs from its reference \
                     (harness {:016x}/{})",
                    run.digest, run.deliveries, reference.delivery_digest, reference.delivery_count
                )
            });
            out.check(run.compiles_steady == 0, || {
                format!("{} schedules compiled while running", run.compiles_steady)
            });
            if opts.trace {
                let tr = simulate(frame, background, seed, steady_packets, true);
                out.count(tr.signature == run.signature, || {
                    format!("instance {i}: traced simulation differs from the untraced one")
                });
                traced_round.push(tr);
            }
            round.push(run);
            took[i] = t.elapsed();
        }
        if !round.is_empty() {
            plain.push(round);
            replayer.timed_round(&mut out);
        }
        if !traced_round.is_empty() {
            traced.push(traced_round);
        }
    }
    let r = replayer.finish();
    let first = &plain[0];
    out.signature = format!(
        "fills={:?} replayed_accepted={:?} sims=[{}]",
        base.iter()
            .map(|s| (s.fill.accepted, s.fill.attempted))
            .collect::<Vec<_>>(),
        r.accepted,
        first
            .iter()
            .map(|s| s.signature.as_str())
            .collect::<Vec<_>>()
            .join("; ")
    );

    replay_metrics(&r, opts.trace, &mut out);
    out.rounds.push(round_line("run_s", &plain, SimRun::run_s));
    out.rounds.push(item_line("run_s", &plain, SimRun::run_s));
    let run_s = sum_of_fastest(&plain, SimRun::run_s);
    let v = &mut out.values;
    if opts.trace {
        let topo: Vec<Vec<TopoTimes>> = setup_rounds
            .iter()
            .map(|round| round.iter().map(|s| s.topo).collect())
            .collect();
        topo_metrics(&topo, v);
        v.set("qos.fill_s", sum_of_medians(&setup_rounds, |s| s.fill_s));
        let attempts: u32 = base.iter().map(|s| s.fill.attempted).sum();
        let accepted: u32 = base.iter().map(|s| s.fill.accepted).sum();
        v.set("qos.fill_attempts", f64::from(attempts));
        v.set("qos.fill_accepted", f64::from(accepted));
        admissions.record(v);
        v.set("sim.build_s", sum_of_medians(&setup_rounds, |s| s.build_s));
        let compiles = plain
            .iter()
            .chain(&traced)
            .flatten()
            .map(|r| r.compiles_steady)
            .max();
        v.set(
            "core.schedule_compiles_steady",
            compiles.unwrap_or(0) as f64,
        );
        v.set("sim.warmup_s", sum_of_fastest(&plain, |r| r.warmup_s));
        v.set("sim.steady_s", sum_of_fastest(&plain, |r| r.steady_s));
        let events: u64 = first.iter().map(|r| r.events).sum();
        v.set("sim.events", events as f64);
        v.set("sim.ns_per_event", 1e9 * ratio(run_s, events as f64));
        let pool_peak = first.iter().map(|r| r.pool_peak).max().unwrap_or(0);
        v.set("sim.pool_peak_packets", pool_peak as f64);
        let deliveries: u64 = first.iter().map(|r| r.deliveries).sum();
        v.set("stats.deliveries", deliveries as f64);

        let probes: Vec<&SimProbes> = traced
            .iter()
            .flatten()
            .filter_map(|r| r.probes.as_ref())
            .collect();
        let (mut event_ns, mut depth) = (Hist::default(), Hist::default());
        for p in &probes {
            event_ns.merge(&p.event_ns);
            depth.merge(&p.queue_depth);
        }
        v.set("sim.event_ns_p50", event_ns.percentile(50.0).or_zero());
        v.set("sim.event_ns_p99", event_ns.percentile(99.0).or_zero());
        v.set("sim.event_samples", event_ns.len() as f64);
        v.set(
            "sim.event_queue_depth_p99",
            depth.percentile(99.0).or_zero(),
        );
        // Counters are identical on every round: read the first one.
        let round0: Vec<&SimProbes> = traced
            .first()
            .map(|r| r.iter().filter_map(|s| s.probes.as_ref()).collect())
            .unwrap_or_default();
        let sum = |f: fn(&SimProbes) -> u64| round0.iter().map(|p| f(p)).sum::<u64>() as f64;
        let grants = sum(|p| p.grants);
        v.set("sim.arb_grants", grants);
        v.set(
            "sim.hol_stalls_per_grant",
            ratio(sum(|p| p.hol_stalls), grants),
        );
        v.set(
            "sim.low_bytes_share",
            ratio(sum(|p| p.low_bytes), sum(|p| p.all_bytes)),
        );
        v.set(
            "sim.events_per_delivery",
            ratio(events as f64, sum(|p| p.deliveries)),
        );
        let obs_ns: u64 = probes.iter().map(|p| p.observer_ns).sum();
        let obs_n: u64 = probes.iter().map(|p| p.observer_samples).sum();
        v.set(
            "stats.observer_ns_per_delivery",
            ratio(obs_ns as f64, obs_n as f64),
        );
        let traced_s = sum_of_fastest(&traced, SimRun::run_s);
        v.set(
            "obs.trace_overhead_pct",
            100.0 * (ratio(traced_s, run_s) - 1.0),
        );
    } else {
        v.set("setup_s", sum_of_medians(&setup_rounds, |s| s.total_s));
        v.set("run_s", run_s);
        v.set("peak_rss_mb", peak_rss_mb());
    }
    out
}
