#![warn(missing_docs)]
//! Simulated RDMA NIC and fabric for the CoRM reproduction.
//!
//! The defining property of RDMA that CoRM (§3.5) engineers around is that
//! the NIC translates virtual addresses with its **own** Memory Translation
//! Table (MTT), populated when memory is registered — *not* with the OS page
//! table. After compaction remaps a virtual page, the two disagree until the
//! MTT is explicitly updated, and one-sided reads silently hit the wrong
//! physical frame. This crate reproduces that hazard and the three repair
//! strategies the paper evaluates:
//!
//! 1. **`ibv_rereg_mr`** — re-snapshot the MTT, preserving keys, but any
//!    access during the re-registration window breaks the queue pair
//!    (observed by the authors on ConnectX-3/5, per the InfiniBand spec).
//! 2. **ODP** — the NIC lazily refetches stale translations from the OS at a
//!    large first-access cost (~63 µs on ConnectX-5).
//! 3. **ODP + `ibv_advise_mr` prefetch** — translations are pushed ahead of
//!    time (~4.5 µs), avoiding the miss. CoRM's default.
//!
//! Components:
//! - [`LatencyModel`]: per-device/per-CPU virtual-time costs calibrated to
//!   the paper's microbenchmarks (Figs. 8, 9, 15).
//! - [`Rnic`]: memory regions with `l_key`/`r_key`, the MTT, ODP regions,
//!   an LRU translation cache (the Zipf-locality effect of Fig. 12), and
//!   one-sided READ/WRITE verbs executed against physical frames.
//! - [`QueuePair`]: reliable connection semantics — invalid accesses move
//!   the QP to the error state and reconnecting costs milliseconds. The
//!   one batch verb is [`QueuePair::read_batch_into`]: a slice of
//!   [`ReadReq`]s pays one doorbell, each READ is admitted into the RNIC's
//!   inbound engine for its service time, and every payload lands in the
//!   caller's buffer with a [`ReadResult`] carrying its completion time.
//! - [`MuxQp`]: DCT-style shared connections, many tenants over one QP.
//! - [`rpc`]: a two-sided SEND/RECV fabric (crossbeam channels) used by the
//!   threaded CoRM server.

pub mod cache;
pub mod fault;
pub mod latency;
pub mod mux;
pub mod qp;
pub mod rnic;
pub mod rpc;
pub mod sched;
pub mod wq;

pub use cache::LruCache;
pub use corm_sim_core::lanes::LaneId;
pub use fault::{FaultBlock, FaultConfig, FaultInjector, FaultKind, ScheduledFault};
pub use latency::{CpuKind, DeviceKind, LatencyModel, MttUpdateStrategy};
pub use mux::{MuxQp, MuxTenant};
pub use qp::{QpDepthStats, QpState, QueuePair};
pub use rnic::{MemoryRegion, RdmaError, Rnic, RnicConfig, VerbOutcome};
pub use sched::{QosAdmission, QosConfig, QosScheduler, TrafficClass};
pub use wq::{ReadReq, ReadResult};
