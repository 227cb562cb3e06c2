//! The CoRM benchmark: one command that runs a named workload against the
//! public `corm-core`, `corm-sim-rdma`, `corm-sim-mem` and
//! `corm-workloads` APIs, checks every result against a versioned-payload
//! oracle, and reports the end-to-end metrics (untraced run) or the
//! per-layer metrics (traced run) declared in `BENCHMARK.json`.
//!
//! The benchmark owns its event loop — a `corm-sim-core` `EventQueue`
//! plus `FifoResource` stations — so every call into a layer is made, and
//! can be timed, from this package without touching the program.

pub mod json;
pub mod oracle;
pub mod probe;
pub mod provenance;
pub mod run;
pub mod spec;
pub mod world;
