//! The repository benchmark: end-to-end metrics of three MW coloring
//! workloads with tracing off, and a separate traced run that splits each
//! workload's time across the simulator's layers. See `README.md`.

pub mod api;
pub mod check;
pub mod pinned;
pub mod regime;
pub mod report;
pub mod trace;
pub mod traced;
pub mod workloads;
