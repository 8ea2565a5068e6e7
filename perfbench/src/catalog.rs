//! The metric catalog: every metric the benchmark prints, with its
//! unit. `BENCHMARK.json` lists the same names (a test holds the two in
//! step), and [`Values::render`] refuses to print a report that misses
//! one of them.

use std::collections::BTreeMap;

/// One metric's name and unit.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("run_s", "s"),
    m("peak_rss_mb", "MB"),
    m("request_us_p50", "us"),
];

/// Metrics of single layers, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("topo.generate_s", "s"),
    m("topo.updown_s", "s"),
    m("qos.fill_s", "s"),
    m("qos.fill_attempts", "count"),
    m("qos.fill_accepted", "count"),
    m("core.alloc_probes_per_request", "ratio"),
    m("core.alloc_probe_reject_share", "ratio"),
    m("qos.seq_trace_s", "s"),
    m("qos.seq_ops_per_s", "1/s"),
    m("qos.serve_trace_s", "s"),
    m("qos.serve_ops_per_s", "1/s"),
    m("qos.serve_over_seq", "ratio"),
    m("qos.request_samples", "count"),
    m("qos.request_us_p99", "us"),
    m("qos.teardown_us_p50", "us"),
    m("qos.teardown_samples", "count"),
    m("qos.reject_share", "ratio"),
    m("qos.repair_ms_p50", "ms"),
    m("qos.repair_samples", "count"),
    m("sim.build_s", "s"),
    m("core.schedule_compiles_steady", "count"),
    m("sim.warmup_s", "s"),
    m("sim.steady_s", "s"),
    m("sim.events", "count"),
    m("sim.ns_per_event", "ns"),
    m("sim.event_ns_p50", "ns"),
    m("sim.event_ns_p99", "ns"),
    m("sim.event_samples", "count"),
    m("sim.event_queue_depth_p99", "count"),
    m("sim.pool_peak_packets", "count"),
    m("sim.arb_grants", "count"),
    m("sim.hol_stalls_per_grant", "ratio"),
    m("sim.low_bytes_share", "ratio"),
    m("sim.events_per_delivery", "ratio"),
    m("stats.deliveries", "count"),
    m("stats.observer_ns_per_delivery", "ns"),
    m("obs.trace_overhead_pct", "%"),
];

/// Metric values collected during a run, by name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records a value (non-finite values are recorded as 0).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// A recorded value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The JSON `metrics` object for `catalog`, in catalog order, or
    /// the names of the metrics that were never recorded.
    pub fn render(&self, catalog: &[MetricDef]) -> Result<String, Vec<&'static str>> {
        let missing: Vec<&'static str> = catalog
            .iter()
            .filter(|d| !self.0.contains_key(d.name))
            .map(|d| d.name)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        let body: Vec<String> = catalog
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(self.0[d.name]),
                    d.unit
                )
            })
            .collect();
        Ok(format!("{{{}}}", body.join(", ")))
    }
}

/// A finite `f64` in JSON syntax, with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_missing_metrics() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        let missing = v.render(END_TO_END).unwrap_err();
        assert!(missing.contains(&"run_s"));
        for d in END_TO_END {
            v.set(d.name, 1.25);
        }
        v.set("run_s", f64::NAN);
        let json = v.render(END_TO_END).unwrap();
        assert!(json.contains("\"run_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
