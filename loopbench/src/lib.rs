//! Closed-loop ExBox benchmark: one driver runs the whole loop —
//! traffic → gateway → delivery reports → poll → retrain → snapshot
//! publish — through the gateway's public API, on three workloads
//! (`storm`, `drift`, `flash_crowd`). See `README.md` in this
//! directory for the workloads, the metrics and how they map onto the
//! gateway's layers.

pub mod driver;
pub mod ledger;
pub mod report;
pub mod stats;
pub mod system;
pub mod trace;
pub mod workload;
