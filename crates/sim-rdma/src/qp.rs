//! Reliable queue pairs.
//!
//! CoRM only uses reliable QPs (the only kind supporting one-sided reads).
//! The property that matters for the paper is failure semantics: an access
//! with an invalid `r_key` — e.g. during a `rereg_mr` window — moves the QP
//! to the error state, and recovering the connection costs milliseconds
//! (§3.5). CoRM's whole remapping design exists to never trigger this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use corm_sim_core::time::{SimDuration, SimTime};
use corm_trace::Stage;

use crate::rnic::{RdmaError, Rnic, VerbOutcome};
use crate::sched::TrafficClass;
use crate::wq::{ReadReq, ReadResult};

/// Connection state of a queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Ready to send/receive.
    Connected,
    /// A failed access moved the QP to the error state; it must be
    /// reconnected before further use.
    Error,
}

/// Batch statistics for the doorbell-batched verb path, exported to the
/// benchmark report next to the fault/recovery metrics. A batch is posted,
/// served and completed by one call, so its size is both the send- and
/// the completion-queue depth it would have occupied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QpDepthStats {
    /// Requests posted.
    pub posted: u64,
    /// Requests completed (executed + flushed).
    pub completed: u64,
    /// Doorbells rung with a non-empty batch.
    pub doorbells: u64,
    /// Largest batch, as a send-queue depth.
    pub sq_depth_max: u64,
    /// Largest batch, as a completion-queue depth.
    pub cq_depth_max: u64,
    /// Requests posted per traffic class, indexed by [`TrafficClass`].
    pub class_posted: [u64; TrafficClass::COUNT],
    /// Per-class largest share of one batch, indexed by [`TrafficClass`].
    pub class_sq_depth_max: [u64; TrafficClass::COUNT],
}

/// A reliable connected queue pair bound to a remote NIC.
pub struct QueuePair {
    rnic: Arc<Rnic>,
    state: Mutex<QpState>,
    reconnects: AtomicU64,
    breaks: AtomicU64,
    /// Requests posted; every batch completes within its call, so this
    /// also counts completions.
    posted: AtomicU64,
    doorbells: AtomicU64,
    /// Largest batch, which is both the send- and completion-queue depth.
    batch_max: AtomicU64,
    class_posted: [AtomicU64; TrafficClass::COUNT],
    class_batch_max: [AtomicU64; TrafficClass::COUNT],
}

impl std::fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuePair").field("state", &*self.state.lock()).finish()
    }
}

impl QueuePair {
    /// Creates a connected QP targeting `rnic`.
    pub fn connect(rnic: Arc<Rnic>) -> Self {
        QueuePair {
            rnic,
            state: Mutex::new(QpState::Connected),
            reconnects: AtomicU64::new(0),
            breaks: AtomicU64::new(0),
            posted: AtomicU64::new(0),
            doorbells: AtomicU64::new(0),
            batch_max: AtomicU64::new(0),
            class_posted: Default::default(),
            class_batch_max: Default::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> QpState {
        *self.state.lock()
    }

    /// The remote NIC this QP targets.
    pub fn rnic(&self) -> &Arc<Rnic> {
        &self.rnic
    }

    /// One-sided READ through this QP. On any access error the QP breaks.
    pub fn read(
        &self,
        rkey: u32,
        va: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<VerbOutcome, RdmaError> {
        self.guarded(|| self.rnic.read(rkey, va, buf, now))
    }

    /// One-sided WRITE through this QP. On any access error the QP breaks.
    pub fn write(
        &self,
        rkey: u32,
        va: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<VerbOutcome, RdmaError> {
        self.guarded(|| self.rnic.write(rkey, va, data, now))
    }

    fn guarded<T>(&self, f: impl FnOnce() -> Result<T, RdmaError>) -> Result<T, RdmaError> {
        {
            let state = self.state.lock();
            if *state == QpState::Error {
                return Err(RdmaError::QpBroken);
            }
        }
        match f() {
            Ok(v) => Ok(v),
            Err(e) => {
                // Access faults break the connection; memory-bounds errors
                // from the simulated DMA do too (they model PCIe faults).
                *self.state.lock() = QpState::Error;
                self.breaks.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Rings one doorbell for a batch of READs, landing each payload
    /// directly in `outs[k]` (resized to the request's length). The batch
    /// pays a single doorbell cost plus per-request engine service (see
    /// [`Rnic`]'s batch serve). If any request fails the QP moves to the
    /// error state and the rest of the batch is flushed with
    /// [`RdmaError::QpBroken`] without reaching the NIC; if the QP is
    /// *already* broken, every request is flushed that way. `results` is
    /// cleared and refilled **in posting order**; callers needing
    /// virtual-completion order sort stably by `completed_at`.
    pub fn read_batch_into(
        &self,
        reqs: &[ReadReq],
        outs: &mut [Vec<u8>],
        now: SimTime,
        results: &mut Vec<ReadResult>,
    ) {
        results.clear();
        if reqs.is_empty() {
            return;
        }
        assert!(outs.len() >= reqs.len(), "one output buffer per request");
        let n = reqs.len() as u64;
        self.posted.fetch_add(n, Ordering::Relaxed);
        self.batch_max.fetch_max(n, Ordering::Relaxed);
        let mut per_class = [0u64; TrafficClass::COUNT];
        for r in reqs {
            per_class[r.class.index()] += 1;
        }
        for (i, &count) in per_class.iter().enumerate() {
            if count > 0 {
                self.class_posted[i].fetch_add(count, Ordering::Relaxed);
                self.class_batch_max[i].fetch_max(count, Ordering::Relaxed);
            }
        }
        self.rnic.trace().add(Stage::WqePost, n);
        self.doorbells.fetch_add(1, Ordering::Relaxed);
        if *self.state.lock() == QpState::Error {
            results.extend(reqs.iter().map(|r| ReadResult {
                wr_id: r.wr_id,
                completed_at: now,
                result: Err(RdmaError::QpBroken),
            }));
        } else {
            self.rnic.serve_reads_into(reqs, outs, now, results);
            if results.iter().any(|r| r.result.is_err()) {
                *self.state.lock() = QpState::Error;
                self.breaks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Batch statistics accumulated over the QP's lifetime.
    pub fn depth_stats(&self) -> QpDepthStats {
        let posted = self.posted.load(Ordering::Relaxed);
        let batch_max = self.batch_max.load(Ordering::Relaxed);
        QpDepthStats {
            posted,
            completed: posted,
            doorbells: self.doorbells.load(Ordering::Relaxed),
            sq_depth_max: batch_max,
            cq_depth_max: batch_max,
            class_posted: self.class_posted.each_ref().map(|c| c.load(Ordering::Relaxed)),
            class_sq_depth_max: self.class_batch_max.each_ref().map(|c| c.load(Ordering::Relaxed)),
        }
    }

    /// Queue depth a reliable connection provisions at creation time:
    /// real verbs providers allocate the send/completion rings from
    /// `max_send_wr` at `ibv_create_qp`, before any traffic flows, so the
    /// host footprint of an RC connection is charged at this depth.
    pub const PROVISIONED_DEPTH: usize = 128;

    /// Host bytes of one send-ring entry (a posted WQE: id, opcode, key,
    /// address, length, tenant and class tags).
    const SQ_ENTRY_BYTES: usize = 56;

    /// Host bytes of one completion-ring entry (id, completion time,
    /// status and the payload descriptor).
    const CQ_ENTRY_BYTES: usize = 80;

    /// Bytes of connection state this QP pins on the host: the fixed
    /// struct plus the send/completion rings at provisioned depth. This is
    /// the per-client cost the [`crate::MuxQp`] shared-connection mode
    /// amortizes across tenants.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + Self::PROVISIONED_DEPTH * (Self::SQ_ENTRY_BYTES + Self::CQ_ENTRY_BYTES)
    }

    /// Re-establishes a broken connection. Returns the recovery cost
    /// ("a few milliseconds", §3.5).
    pub fn reconnect(&self) -> SimDuration {
        let mut state = self.state.lock();
        *state = QpState::Connected;
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        self.rnic.model().qp_reconnect
    }

    /// Number of reconnects performed.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Number of times the QP broke.
    pub fn breaks(&self) -> u64 {
        self.breaks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rnic::RnicConfig;
    use corm_sim_mem::{AddressSpace, PhysicalMemory};

    fn setup() -> (Arc<AddressSpace>, Arc<Rnic>, u64) {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
        (aspace, rnic, va)
    }

    #[test]
    fn read_write_through_connected_qp() {
        let (_aspace, rnic, va) = setup();
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let qp = QueuePair::connect(rnic);
        qp.write(mr.rkey, va, b"ping", SimTime::ZERO).unwrap();
        let mut buf = [0u8; 4];
        qp.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"ping");
        assert_eq!(qp.state(), QpState::Connected);
        assert_eq!(qp.breaks(), 0);
    }

    #[test]
    fn invalid_rkey_breaks_qp_until_reconnect() {
        let (_aspace, rnic, va) = setup();
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let qp = QueuePair::connect(rnic);
        let mut buf = [0u8; 4];
        assert!(matches!(
            qp.read(0xbad, va, &mut buf, SimTime::ZERO),
            Err(RdmaError::InvalidKey(_))
        ));
        assert_eq!(qp.state(), QpState::Error);
        // Further ops — even valid ones — fail until reconnect.
        assert_eq!(qp.read(mr.rkey, va, &mut buf, SimTime::ZERO), Err(RdmaError::QpBroken));
        let cost = qp.reconnect();
        assert!(cost.as_secs_f64() >= 0.001, "reconnect should cost ms");
        qp.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(qp.reconnects(), 1);
        assert_eq!(qp.breaks(), 1);
    }

    fn batch_setup(pages: usize) -> (Arc<AddressSpace>, Arc<Rnic>, u64) {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(pages).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
        (aspace, rnic, va)
    }

    /// Runs one doorbell batch of `reqs` and returns the results (posting
    /// order) with the payloads.
    fn batch(qp: &QueuePair, reqs: &[ReadReq], now: SimTime) -> (Vec<ReadResult>, Vec<Vec<u8>>) {
        let mut outs = vec![Vec::new(); reqs.len()];
        let mut results = Vec::new();
        qp.read_batch_into(reqs, &mut outs, now, &mut results);
        (results, outs)
    }

    #[test]
    fn batch_round_trip_preserves_data_and_order() {
        let (aspace, rnic, va) = batch_setup(8);
        let (mr, _) = rnic.register(va, 8, false).unwrap();
        let qp = QueuePair::connect(rnic.clone());
        let reqs: Vec<ReadReq> = (0..8u64)
            .map(|i| {
                aspace.write(va + i * 4096, &[i as u8; 16]).unwrap();
                ReadReq::new(i, mr.rkey, va + i * 4096, 16)
            })
            .collect();
        let now = SimTime::from_micros(5);
        let (results, outs) = batch(&qp, &reqs, now);
        assert_eq!(results.len(), 8);
        for (k, r) in results.iter().enumerate() {
            assert_eq!(r.wr_id, k as u64, "results come back in posting order");
            assert!(r.result.is_ok());
            assert_eq!(outs[k], vec![k as u8; 16]);
            assert!(r.completed_at > now);
        }
        // The single FIFO engine serves in posting order; only the first
        // read's cold translation can let the second overtake it.
        assert!(results[1..].windows(2).all(|w| w[0].completed_at <= w[1].completed_at));
        let stats = qp.depth_stats();
        assert_eq!(stats.posted, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.doorbells, 1);
        assert_eq!(stats.sq_depth_max, 8);
        assert_eq!(stats.cq_depth_max, 8);
        assert_eq!(rnic.engine_admitted(), 8);
        assert!(rnic.engine_busy() > SimDuration::ZERO);
    }

    #[test]
    fn batch_amortizes_doorbell_and_wire_latency() {
        // 8 pipelined reads must finish in far less virtual time than 8
        // sequential round trips: each WQE only adds engine service, not a
        // full wire RTT.
        let (_a1, rnic_b, va_b) = batch_setup(1);
        let (mr_b, _) = rnic_b.register(va_b, 1, false).unwrap();
        let qp_b = QueuePair::connect(rnic_b.clone());
        let reqs: Vec<ReadReq> = (0..8u64).map(|i| ReadReq::new(i, mr_b.rkey, va_b, 32)).collect();
        let (results, _) = batch(&qp_b, &reqs, SimTime::ZERO);
        let batch_end = results.iter().map(|r| r.completed_at).max().unwrap();

        let (_a2, rnic_s, va_s) = batch_setup(1);
        let (mr_s, _) = rnic_s.register(va_s, 1, false).unwrap();
        let qp_s = QueuePair::connect(rnic_s);
        let mut seq = SimDuration::ZERO;
        let mut buf = [0u8; 32];
        for _ in 0..8 {
            seq += qp_s.read(mr_s.rkey, va_s, &mut buf, SimTime::ZERO + seq).unwrap().latency;
        }
        let batch = batch_end.saturating_since(SimTime::ZERO);
        assert!(
            batch.as_nanos() * 2 < seq.as_nanos(),
            "batch {batch} should be well under half of sequential {seq}"
        );
        // But batching is not free: the makespan still covers one full
        // round trip plus all the engine service.
        let single = rnic_b.model().rdma_read_latency(32, true);
        assert!(batch > single, "batch {batch} must exceed one RTT {single}");
    }

    #[test]
    fn mid_batch_fault_flushes_rest_without_draws() {
        use crate::fault::{FaultConfig, FaultKind, ScheduledFault};
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let cfg = RnicConfig {
            faults: Some(FaultConfig::scripted(vec![ScheduledFault {
                at_op: 2,
                kind: FaultKind::Transient,
            }])),
            ..RnicConfig::default()
        };
        let rnic = Arc::new(Rnic::new(aspace, cfg));
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let qp = QueuePair::connect(rnic.clone());
        let reqs: Vec<ReadReq> = (0..5u64).map(|i| ReadReq::new(i, mr.rkey, va, 8)).collect();
        let (results, _) = batch(&qp, &reqs, SimTime::ZERO);
        assert_eq!(results.len(), 5);
        assert!(results[..2].iter().all(|r| r.result.is_ok()));
        let failed: Vec<_> = results[2..].iter().map(|r| (r.wr_id, r.result.clone())).collect();
        assert_eq!(failed[0], (2, Err(RdmaError::InjectedFault)));
        assert_eq!(failed[1], (3, Err(RdmaError::QpBroken)));
        assert_eq!(failed[2], (4, Err(RdmaError::QpBroken)));
        // Failures surface at batch arrival, i.e. before the successes.
        let arrival = SimTime::ZERO + rnic.model().doorbell_cost;
        assert!(results[2..].iter().all(|r| r.completed_at == arrival));
        assert!(results[..2].iter().all(|r| r.completed_at > arrival));
        assert_eq!(qp.state(), QpState::Error);
        assert_eq!(qp.breaks(), 1);
        // Flushed requests never reached the NIC: only ops 0..=2 drew from
        // the fault stream, so a reconnect-and-repost lands on draw index 3.
        assert_eq!(rnic.stats.wqes.load(Ordering::Relaxed), 3);
        qp.reconnect();
        let (retry, _) = batch(&qp, &reqs[2..], SimTime::from_micros(50));
        assert_eq!(retry.len(), 3);
        assert!(retry.iter().all(|r| r.result.is_ok()));
        assert_eq!(rnic.fault_log(), vec![(2, FaultKind::Transient)]);
    }

    #[test]
    fn doorbell_on_broken_qp_flushes_everything() {
        let (_aspace, rnic, va) = batch_setup(1);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let qp = QueuePair::connect(rnic.clone());
        let mut buf = [0u8; 4];
        assert!(qp.read(0xbad, va, &mut buf, SimTime::ZERO).is_err());
        assert_eq!(qp.state(), QpState::Error);
        let reqs = [ReadReq::new(7, mr.rkey, va, 4), ReadReq::new(8, mr.rkey, va, 4)];
        let now = SimTime::from_micros(9);
        let (results, _) = batch(&qp, &reqs, now);
        assert_eq!(results.iter().map(|r| r.wr_id).collect::<Vec<_>>(), vec![7, 8]);
        assert!(results.iter().all(|r| r.result == Err(RdmaError::QpBroken)));
        assert!(results.iter().all(|r| r.completed_at == now));
        // The batch never reached the NIC.
        assert_eq!(rnic.stats.wqes.load(Ordering::Relaxed), 0);
        assert_eq!(rnic.stats.doorbells.load(Ordering::Relaxed), 0);
        assert_eq!(qp.depth_stats().completed, 2);
    }

    #[test]
    fn empty_doorbell_is_noop() {
        let (_aspace, rnic, _va) = batch_setup(1);
        let qp = QueuePair::connect(rnic.clone());
        let mut results = vec![ReadResult {
            wr_id: 1,
            completed_at: SimTime::ZERO,
            result: Err(RdmaError::QpBroken),
        }];
        qp.read_batch_into(&[], &mut [], SimTime::ZERO, &mut results);
        assert!(results.is_empty(), "stale results are cleared");
        assert_eq!(qp.depth_stats(), QpDepthStats::default());
        assert_eq!(rnic.stats.doorbells.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn access_during_rereg_window_breaks_qp() {
        let (aspace, rnic, va) = setup();
        let pm = aspace.phys().clone();
        let f_new = pm.alloc().unwrap();
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        aspace.remap(va, &[f_new]).unwrap();
        let qp = QueuePair::connect(rnic.clone());
        let t0 = SimTime::from_micros(10);
        rnic.rereg(mr.rkey, t0).unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(qp.read(mr.rkey, va, &mut buf, t0), Err(RdmaError::RegionBusy(_))));
        assert_eq!(qp.state(), QpState::Error);
    }
}
