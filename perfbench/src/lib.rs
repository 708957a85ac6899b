//! End-to-end and per-layer benchmark of the dynamic alignment/distribution
//! planner. See `perfbench/README.md` for the workloads, the metrics and
//! what each per-layer metric should move.

pub mod client;
pub mod exec;
pub mod ledger;
pub mod metrics;
pub mod worker;
pub mod workload;
