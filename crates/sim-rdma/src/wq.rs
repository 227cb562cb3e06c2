//! Request and result records for the doorbell-batched READ verb.
//!
//! Real RNICs are asynchronous: the driver appends work-queue elements
//! (WQEs) to a send queue in host memory, rings a doorbell once (an MMIO
//! write), and the NIC fetches and executes the whole batch, pushing one
//! completion per WQE. Throughput comes from keeping many WQEs in flight
//! so the per-verb doorbell/fetch overhead is amortized and the inbound
//! engine never idles — the effect behind CoRM's Fig. 11/12 plateaus.
//!
//! The simulator charges exactly that cost model through one synchronous
//! call, [`crate::QueuePair::read_batch_into`]: a slice of [`ReadReq`]s is
//! one doorbell, each payload lands directly in the caller's buffer, and
//! each request gets a [`ReadResult`] carrying its virtual completion time.
//! There is no send or completion queue to drain — results come back in
//! posting order, and callers that want completion order sort stably by
//! [`ReadResult::completed_at`].

use corm_sim_core::time::SimTime;

use crate::rnic::{RdmaError, VerbOutcome};
use crate::sched::TrafficClass;

/// One READ of a doorbell batch ([`crate::QueuePair::read_batch_into`]),
/// a copyable record so batches can live in a caller-recycled vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadReq {
    /// Caller-chosen identifier echoed back in the matching result.
    pub wr_id: u64,
    /// Remote key of the target region.
    pub rkey: u32,
    /// Target virtual address.
    pub va: u64,
    /// Number of bytes to read.
    pub len: usize,
    /// Tenant the request is charged to by the QoS scheduler.
    pub tenant: u32,
    /// SLO class the request rides under the QoS scheduler.
    pub class: TrafficClass,
}

impl ReadReq {
    /// A latency-class request of the default tenant — the common case for
    /// unshared QPs.
    pub fn new(wr_id: u64, rkey: u32, va: u64, len: usize) -> Self {
        ReadReq { wr_id, rkey, va, len, tenant: 0, class: TrafficClass::Latency }
    }
}

/// The outcome of one READ-batch entry; the payload itself lands directly
/// in the caller's buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// The `wr_id` of the request this result belongs to.
    pub wr_id: u64,
    /// Virtual time at which the verb completed (engine service plus the
    /// remaining wire latency). For failed/flushed requests this is the
    /// batch arrival time: errors are reported as soon as the NIC sees
    /// them.
    pub completed_at: SimTime,
    /// Verb outcome, or the error that failed/flushed the request.
    pub result: Result<VerbOutcome, RdmaError>,
}
