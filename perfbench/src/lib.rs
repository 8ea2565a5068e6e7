//! End-to-end and per-layer benchmark of the InfiniBand QoS stack.
//!
//! Four workloads drive the layers through their public functions:
//! two paper-scale fabric runs (Table-1 fill to saturation, then the
//! transient and steady state) and two admission traces through the
//! sequential manager and the sharded admission service. A plain run
//! prints the end-to-end metrics; a traced run wraps the program's
//! recorder and observer in bench-side probes and prints the per-layer
//! metrics. Every run checks its outputs against the program's own
//! reference paths. See `README.md` for the metric definitions.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod probe;
pub mod stats;
pub mod workload;

pub use catalog::{MetricDef, Values, END_TO_END, PER_LAYER};
pub use workload::{run, Options, Outcome, Scale, Workload, DEFAULT_SEED, HELD_OUT_SEED};
