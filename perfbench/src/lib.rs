//! End-to-end and per-layer benchmark of the vod workspace.
//!
//! The benchmark treats the program as a library: it generates arrivals
//! with `vod_workload` from a seed it takes as an argument, hands only
//! those arrivals to `vod_sim`, `vod_cluster` and `vod_chaos`, and times
//! the calls into their public functions from its own files. It runs in
//! one process on one thread. See `README.md` for the metrics, the
//! workloads and what each is for.

pub mod bench;
pub mod calib;
pub mod expected;
pub mod host;
pub mod span;
pub mod stats;
pub mod workload;
