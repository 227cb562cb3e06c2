//! Hardware-floor baselines: raw RDMA reads, raw RPC round trips, and
//! local `memcpy` (Figs. 9–11).

use std::sync::Arc;

use corm_core::{GlobalPtr, Timed};
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::{LatencyModel, QueuePair, RdmaError, ReadReq, Rnic};

/// A client issuing raw one-sided RDMA reads with *no* consistency check —
/// the "RDMA" line of Figs. 9 and 11.
pub struct RawRdmaClient {
    qp: QueuePair,
}

impl RawRdmaClient {
    /// Connects a raw QP to the given NIC.
    pub fn connect(rnic: Arc<Rnic>) -> Self {
        RawRdmaClient { qp: QueuePair::connect(rnic) }
    }

    /// Reads `buf.len()` bytes at `(rkey, vaddr)`. Returns the verb
    /// latency; no validation of the returned bytes is performed.
    pub fn read(
        &self,
        rkey: u32,
        vaddr: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<Timed<()>, RdmaError> {
        let out = self.qp.read(rkey, vaddr, buf, now)?;
        Ok(Timed::new((), out.latency))
    }

    /// Reads the object a CoRM pointer references, raw (useful for
    /// apples-to-apples sweeps over the same population).
    pub fn read_ptr(
        &self,
        ptr: &GlobalPtr,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<Timed<()>, RdmaError> {
        self.read(ptr.rkey, ptr.vaddr, buf, now)
    }

    /// Batched raw reads — the hardware floor of multi-get: one READ per
    /// `(rkey, vaddr, len)` request, a single doorbell, no validation.
    /// Returns the fetched payloads in request order; the cost is the
    /// batch makespan (the instant the last completion lands).
    pub fn read_batch(
        &self,
        reqs: &[(u32, u64, usize)],
        now: SimTime,
    ) -> Result<Timed<Vec<Vec<u8>>>, RdmaError> {
        let reqs: Vec<ReadReq> = reqs
            .iter()
            .enumerate()
            .map(|(k, &(rkey, vaddr, len))| ReadReq::new(k as u64, rkey, vaddr, len))
            .collect();
        let mut out = vec![Vec::new(); reqs.len()];
        let mut results = Vec::with_capacity(reqs.len());
        self.qp.read_batch_into(&reqs, &mut out, now, &mut results);
        let mut end = now;
        for r in results {
            r.result?;
            end = end.max(r.completed_at);
        }
        Ok(Timed::new(out, end.saturating_since(now)))
    }

    /// The QP, for failure-semantics experiments.
    pub fn qp(&self) -> &QueuePair {
        &self.qp
    }
}

/// The raw RPC round-trip baseline (Send/Recv echo): wire + queue + worker
/// handling, no memory work.
#[derive(Debug, Clone)]
pub struct RpcEcho {
    model: LatencyModel,
}

impl RpcEcho {
    /// Creates the baseline over a latency model.
    pub fn new(model: LatencyModel) -> Self {
        RpcEcho { model }
    }

    /// Round-trip latency for a `len`-byte payload.
    pub fn round_trip(&self, len: usize) -> SimDuration {
        self.model.rpc_latency(len)
    }

    /// The IPoIB (TCP over InfiniBand) reference latency (§4.1: 17 µs).
    pub fn ipoib_round_trip(&self) -> SimDuration {
        self.model.ipoib_rtt
    }
}

/// The local `memcpy` baseline of Fig. 11 (right): a plain copy with no
/// API layer or consistency check.
#[derive(Debug, Clone)]
pub struct LocalMemcpy {
    model: LatencyModel,
}

impl LocalMemcpy {
    /// Creates the baseline over a latency model.
    pub fn new(model: LatencyModel) -> Self {
        LocalMemcpy { model }
    }

    /// Copies `src` into `dst` and returns the modeled cost.
    pub fn copy(&self, src: &[u8], dst: &mut [u8]) -> Timed<usize> {
        let n = src.len().min(dst.len());
        dst[..n].copy_from_slice(&src[..n]);
        Timed::new(n, self.model.memcpy_cost(n))
    }

    /// Modeled cost of copying `len` bytes.
    pub fn cost(&self, len: usize) -> SimDuration {
        self.model.memcpy_cost(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_sim_mem::{AddressSpace, PhysicalMemory};
    use corm_sim_rdma::RnicConfig;

    #[test]
    fn raw_rdma_reads_bytes_without_validation() {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        aspace.write(va, b"raw!").unwrap();
        let client = RawRdmaClient::connect(rnic);
        let mut buf = [0u8; 4];
        let t = client.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"raw!");
        // Raw read of a small object with warm cache ≈ 1.7 us.
        let warm = client.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert!(warm.cost < t.cost);
        assert!((warm.cost.as_micros_f64() - 1.7).abs() < 0.2);
    }

    #[test]
    fn raw_batch_returns_payloads_and_amortizes() {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(4).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
        let (mr, _) = rnic.register(va, 4, false).unwrap();
        for i in 0..16u64 {
            aspace.write(va + i * 64, &[i as u8; 64]).unwrap();
        }
        let client = RawRdmaClient::connect(rnic);
        let reqs: Vec<(u32, u64, usize)> = (0..16u64).map(|i| (mr.rkey, va + i * 64, 64)).collect();
        let t = client.read_batch(&reqs, SimTime::ZERO).unwrap();
        for (i, payload) in t.value.iter().enumerate() {
            assert_eq!(payload, &vec![i as u8; 64]);
        }
        // Makespan must be well under 16 sequential round trips.
        let mut buf = [0u8; 64];
        let single = client.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap().cost;
        assert!(t.cost.as_nanos() < single.as_nanos() * 16 / 2, "batch {} vs 16x{single}", t.cost);
    }

    #[test]
    fn rpc_echo_and_ipoib_latencies() {
        let echo = RpcEcho::new(LatencyModel::connectx5());
        assert!(echo.round_trip(8) < echo.round_trip(2048));
        assert_eq!(echo.ipoib_round_trip().as_micros_f64(), 17.0);
        // RPC is slower than a raw RDMA read but far faster than IPoIB.
        let model = LatencyModel::connectx5();
        assert!(echo.round_trip(8) > model.rdma_read_latency(8, true));
        assert!(echo.round_trip(8) < echo.ipoib_round_trip());
    }

    #[test]
    fn memcpy_copies_and_costs_scale() {
        let m = LocalMemcpy::new(LatencyModel::connectx5());
        let src = vec![7u8; 256];
        let mut dst = vec![0u8; 256];
        let t = m.copy(&src, &mut dst);
        assert_eq!(t.value, 256);
        assert_eq!(dst, src);
        assert!(m.cost(2048) > m.cost(8));
    }
}
