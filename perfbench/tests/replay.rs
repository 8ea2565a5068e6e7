//! The benchmark's own checks: a seed replays byte-identical simulated
//! statistics, two seeds differ, a traced run simulates exactly what
//! the untraced run does, and every metric the program prints and
//! every gated workload are listed in `BENCHMARK.json`.

use iba_perfbench::{
    run, Options, Outcome, Scale, Workload, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER,
};

/// Small enough to run in seconds, large enough that every percentile
/// has its tail samples.
const SMALL: Scale = Scale {
    switches: 4,
    instances: 2,
    bg_steady_packets: 1,
    qos_steady_packets: 1,
    trace_len: 512,
};

fn run_small(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let out = run(&Options {
        workload,
        seed,
        seconds: 0.001,
        trace,
        scale: SMALL,
    });
    assert!(
        out.problems.is_empty() && out.failed == 0,
        "{} seed {seed} trace {trace}: {:?}",
        workload.name(),
        out.problems
    );
    assert!(out.attempted > 0);
    out
}

#[test]
fn a_seed_replays_identically_and_two_seeds_differ() {
    for w in Workload::ALL {
        let a = run_small(w, DEFAULT_SEED, false);
        let b = run_small(w, DEFAULT_SEED, false);
        let c = run_small(w, HELD_OUT_SEED, false);
        assert_eq!(a.signature, b.signature, "{} did not replay", w.name());
        assert_ne!(a.signature, c.signature, "{}: seeds collided", w.name());
        for d in END_TO_END {
            let v = a.values.get(d.name).unwrap_or(0.0);
            assert!(v > 0.0, "{}: {} is {v}", w.name(), d.name);
        }
    }
}

#[test]
fn traced_runs_simulate_what_untraced_runs_do() {
    for w in Workload::ALL {
        let plain = run_small(w, DEFAULT_SEED, false);
        let traced = run_small(w, DEFAULT_SEED, true);
        assert_eq!(plain.signature, traced.signature, "{}", w.name());
        assert!(traced.values.render(PER_LAYER).is_ok(), "{}", w.name());
        assert!(plain.values.render(END_TO_END).is_ok(), "{}", w.name());
    }
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::GATED {
        let entry = format!("\"name\": \"{}\"", w.name());
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"name\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len() + Workload::GATED.len()
    );
}
