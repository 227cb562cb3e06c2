//! Virtual-time cost model, calibrated to the paper's own microbenchmarks.
//!
//! Calibration anchors (all from the CoRM paper):
//! - §4.1/Fig. 9: raw RDMA read RTT ≥ 1.7 µs, "under 4 µs" up to 2 KiB;
//!   IPoIB RTT 17 µs; Alloc/Free ≈ RPC + 0.5 µs; block refill +5 µs;
//!   ReleasePtr +0.3 µs.
//! - Fig. 8: mmap 1.9–2.3 µs, `ibv_rereg_mr` 8.5–9.6 µs (ConnectX-5), ODP
//!   first-access miss 62–65 µs, `ibv_advise_mr` 4.5–4.6 µs.
//! - Fig. 15: `rereg_mr` ≈ 70 µs on ConnectX-3; per-block compaction ≈
//!   100 µs (CX-3); 256-page block ≈ 12 ms (CX-3); collection 10 µs @ 2
//!   threads on Intel vs 2 µs on AMD, ≈ 31 µs @ 16 threads.
//! - Fig. 11/12: single-client raw RDMA read ≈ 380 Kreq/s over an 8 GiB
//!   working set (MTT-cache-miss dominated); aggregate DirectRead plateau
//!   ≈ 2.2 Mreq/s (Zipf) / 1.75 Mreq/s (uniform); RPC plateau ≈ 700 Kreq/s;
//!   QP recovery "a few milliseconds".
//!
//! Absolute values are testbed-specific; what the reproduction preserves is
//! the *relative* structure — which strategy wins, where curves cross, and
//! how costs scale with pages, threads, and object sizes.

use corm_sim_core::time::SimDuration;

/// RNIC device generation. ConnectX-3 lacks ODP support and has a much more
/// expensive `rereg_mr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// ConnectX-3: no ODP, `rereg_mr` ≈ 70 µs per page batch.
    ConnectX3,
    /// ConnectX-5: ODP-capable, `rereg_mr` ≈ 9 µs.
    ConnectX5,
}

/// Host CPU used for the inter-thread collection phase (Fig. 15 left).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuKind {
    /// Intel Xeon E5-2630 v3 (the paper's main cluster).
    IntelXeon,
    /// AMD EPYC 7742 (the paper's comparison point).
    AmdEpyc,
}

/// How the RNIC's MTT is brought back in sync after a compaction remap
/// (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MttUpdateStrategy {
    /// Explicit `ibv_rereg_mr`. Preserves keys, but accesses during the
    /// re-registration window break the QP.
    Rereg,
    /// Rely on On-Demand Paging: first access after the remap pays the ODP
    /// miss, the connection survives.
    Odp,
    /// ODP plus `ibv_advise_mr` prefetch: translations are installed ahead
    /// of the first access. CoRM's default.
    OdpPrefetch,
}

impl MttUpdateStrategy {
    /// Whether the strategy requires ODP hardware support.
    pub fn needs_odp(self) -> bool {
        matches!(self, MttUpdateStrategy::Odp | MttUpdateStrategy::OdpPrefetch)
    }
}

/// Per-primitive virtual-time costs. All public so experiments can ablate
/// individual parameters.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// RNIC device generation.
    pub device: DeviceKind,
    /// Host CPU (affects inter-thread messaging).
    pub cpu: CpuKind,

    // --- network / one-sided path -------------------------------------
    /// Round-trip wire + NIC-processing time excluding translation.
    pub wire_rtt: SimDuration,
    /// Per-byte serialization cost, counted once per direction carrying
    /// payload (ns/byte).
    pub wire_per_byte_ns: f64,
    /// Translation cost when the MTT entry is in the RNIC cache.
    pub mtt_hit: SimDuration,
    /// Extra end-to-end latency when the translation misses the cache.
    pub mtt_miss_extra: SimDuration,
    /// RNIC inbound-engine occupancy per one-sided read (cache hit).
    pub nic_read_service: SimDuration,
    /// Extra engine occupancy on a cache miss.
    pub nic_miss_service_extra: SimDuration,
    /// Cost of ringing the doorbell once for a posted batch: the MMIO write
    /// plus the WQE-fetch DMA the NIC issues in response. Paid once per
    /// `read_batch_into`, regardless of how many WQEs the batch carries —
    /// this is the amortization that lets pipelined postings approach the
    /// engine's service rate (NP-RDMA measures the per-verb doorbell+fetch
    /// overhead at a few hundred nanoseconds on ConnectX-class NICs).
    pub doorbell_cost: SimDuration,

    // --- RPC path -------------------------------------------------------
    /// Send/Recv round trip including request handling (small messages).
    pub rpc_rtt: SimDuration,
    /// Occupancy of the shared RPC ingress (queue + receive path) per
    /// request; this is what caps aggregate RPC throughput.
    pub rpc_ingress_service: SimDuration,
    /// Worker CPU time to execute a simple read/write handler.
    pub rpc_worker_service: SimDuration,
    /// NIC inbound-engine occupancy of a two-sided (Send/Recv) request —
    /// receive-queue processing costs more than a one-sided read, which is
    /// why mixed workloads do not get the RPC path "for free" (Fig. 12's
    /// 100:0 &gt; 95:5 ordering).
    pub rpc_nic_service: SimDuration,
    /// Extra CPU time for Alloc/Free bookkeeping (§4.1: +0.5 µs).
    pub alloc_free_extra: SimDuration,
    /// Extra time when a thread-local allocator must fetch and register a
    /// new block (§4.1: +5 µs).
    pub block_refill_extra: SimDuration,
    /// Extra time for ReleasePtr bookkeeping (§4.1: +0.3 µs).
    pub release_ptr_extra: SimDuration,
    /// IPoIB TCP round trip, reported for reference (§4.1: 17 µs).
    pub ipoib_rtt: SimDuration,

    // --- CPU-side data costs ---------------------------------------------
    /// Client-side consistency check per cacheline of a DirectRead.
    pub version_check_per_cacheline: SimDuration,
    /// Cost to compare one object header while scanning a block.
    pub scan_per_object: SimDuration,
    /// DRAM copy cost (ns/byte).
    pub copy_per_byte_ns: f64,
    /// Fixed overhead of a local CoRM/FaRM API read (§4.2.1: ≈1.33× memcpy).
    pub local_read_base: SimDuration,
    /// Fixed overhead of a bare local memcpy.
    pub memcpy_base: SimDuration,

    // --- OS / verbs memory management -----------------------------------
    /// `mmap` fixed cost.
    pub mmap_base: SimDuration,
    /// `mmap` per-page cost.
    pub mmap_per_page: SimDuration,
    /// `munmap` cost.
    pub munmap: SimDuration,
    /// `ibv_rereg_mr` fixed cost.
    pub rereg_base: SimDuration,
    /// `ibv_rereg_mr` per-page cost.
    pub rereg_per_page: SimDuration,
    /// ODP first-access miss cost (None when the device lacks ODP).
    pub odp_miss: Option<SimDuration>,
    /// `ibv_advise_mr` prefetch fixed cost.
    pub advise_base: SimDuration,
    /// `ibv_advise_mr` per-page cost.
    pub advise_per_page: SimDuration,
    /// Cost to re-establish a broken QP ("a few milliseconds").
    pub qp_reconnect: SimDuration,

    // --- compaction machinery (Fig. 15) -----------------------------------
    /// Collection-phase latency with two threads (leader + one).
    pub collection_pair: SimDuration,
    /// Additional collection latency per extra thread beyond two.
    pub collection_per_thread: SimDuration,
    /// Fixed per-block compaction bookkeeping (conflict checks, locking,
    /// metadata merge setup) excluding copies and remapping.
    pub compaction_block_overhead: SimDuration,
    /// Metadata-merge cost per moved object.
    pub metadata_per_object: SimDuration,
}

impl LatencyModel {
    /// ConnectX-3 on the Intel cluster (the paper's main testbed).
    pub fn connectx3() -> Self {
        LatencyModel {
            device: DeviceKind::ConnectX3,
            odp_miss: None,
            rereg_base: SimDuration::from_micros_f64(25.0),
            rereg_per_page: SimDuration::from_micros_f64(45.0),
            ..Self::connectx5()
        }
    }

    /// ConnectX-5 on the Intel cluster.
    pub fn connectx5() -> Self {
        LatencyModel {
            device: DeviceKind::ConnectX5,
            cpu: CpuKind::IntelXeon,
            wire_rtt: SimDuration::from_micros_f64(1.55),
            wire_per_byte_ns: 0.15, // FDR ≈ 6.8 GB/s ≈ 0.147 ns/B
            mtt_hit: SimDuration::from_micros_f64(0.15),
            mtt_miss_extra: SimDuration::from_micros_f64(0.85),
            nic_read_service: SimDuration::from_micros_f64(0.45),
            nic_miss_service_extra: SimDuration::from_micros_f64(0.12),
            doorbell_cost: SimDuration::from_micros_f64(0.25),
            rpc_rtt: SimDuration::from_micros_f64(2.5),
            rpc_ingress_service: SimDuration::from_micros_f64(1.43),
            rpc_worker_service: SimDuration::from_micros_f64(0.9),
            rpc_nic_service: SimDuration::from_micros_f64(0.68),
            alloc_free_extra: SimDuration::from_micros_f64(0.5),
            block_refill_extra: SimDuration::from_micros_f64(5.0),
            release_ptr_extra: SimDuration::from_micros_f64(0.3),
            ipoib_rtt: SimDuration::from_micros_f64(17.0),
            version_check_per_cacheline: SimDuration::from_nanos(1),
            scan_per_object: SimDuration::from_nanos(2),
            copy_per_byte_ns: 0.1,
            local_read_base: SimDuration::from_nanos(66),
            memcpy_base: SimDuration::from_nanos(50),
            mmap_base: SimDuration::from_micros_f64(2.1),
            mmap_per_page: SimDuration::from_micros_f64(0.2),
            munmap: SimDuration::from_micros_f64(1.0),
            rereg_base: SimDuration::from_micros_f64(6.5),
            rereg_per_page: SimDuration::from_micros_f64(2.0),
            odp_miss: Some(SimDuration::from_micros_f64(63.0)),
            advise_base: SimDuration::from_micros_f64(3.5),
            advise_per_page: SimDuration::from_micros_f64(1.0),
            qp_reconnect: SimDuration::from_millis(3),
            collection_pair: SimDuration::from_micros_f64(10.0),
            collection_per_thread: SimDuration::from_micros_f64(1.5),
            compaction_block_overhead: SimDuration::from_micros_f64(26.0),
            metadata_per_object: SimDuration::from_nanos(50),
        }
    }

    /// ConnectX-5 on the AMD EPYC host (Fig. 15's CPU comparison).
    pub fn connectx5_amd() -> Self {
        LatencyModel {
            cpu: CpuKind::AmdEpyc,
            collection_pair: SimDuration::from_micros_f64(2.0),
            collection_per_thread: SimDuration::from_micros_f64(2.0),
            ..Self::connectx5()
        }
    }

    fn per_byte(&self, ns_per_byte: f64, bytes: usize) -> SimDuration {
        SimDuration::from_nanos((ns_per_byte * bytes as f64).round() as u64)
    }

    /// End-to-end latency of a raw one-sided RDMA read of `len` bytes.
    pub fn rdma_read_latency(&self, len: usize, cache_hit: bool) -> SimDuration {
        let mut d = self.wire_rtt + self.mtt_hit + self.per_byte(self.wire_per_byte_ns, len);
        if !cache_hit {
            d += self.mtt_miss_extra;
        }
        d
    }

    /// RNIC inbound-engine occupancy of a one-sided read.
    pub fn rdma_read_service(&self, len: usize, cache_hit: bool) -> SimDuration {
        let mut d = self.nic_read_service + self.per_byte(self.copy_per_byte_ns, len);
        if !cache_hit {
            d += self.nic_miss_service_extra;
        }
        d
    }

    /// End-to-end latency of an RPC carrying `len` payload bytes,
    /// excluding handler-specific work.
    pub fn rpc_latency(&self, len: usize) -> SimDuration {
        self.rpc_rtt + self.per_byte(self.wire_per_byte_ns, len)
    }

    /// The conservative cross-lane lookahead for windowed lane-parallel
    /// execution: a hard lower bound on how far in the future any event one
    /// lane can cause on another lane lands. No cross-lane interaction is
    /// cheaper than ringing a doorbell (the per-batch MMIO write — 0.25 µs
    /// on the NP-RDMA anchor) or than half the wire round trip, so the
    /// minimum of the two is safe for every verb and RPC path the model
    /// prices.
    pub fn cross_lane_lookahead(&self) -> SimDuration {
        self.doorbell_cost.min(self.wire_rtt / 2)
    }

    /// DRAM copy cost for `len` bytes.
    pub fn copy_cost(&self, len: usize) -> SimDuration {
        self.per_byte(self.copy_per_byte_ns, len)
    }

    /// Client-side consistency-check cost over `len` bytes of cachelines.
    pub fn version_check_cost(&self, len: usize) -> SimDuration {
        let cachelines = len.div_ceil(64) as u64;
        self.version_check_per_cacheline * cachelines
    }

    /// Cost of scanning `objects` headers in a block.
    pub fn scan_cost(&self, objects: usize) -> SimDuration {
        self.scan_per_object * objects as u64
    }

    /// Local CoRM/FaRM API read of `len` bytes.
    pub fn local_read_cost(&self, len: usize) -> SimDuration {
        self.local_read_base + self.copy_cost(len) + self.version_check_cost(len)
    }

    /// Bare local memcpy of `len` bytes.
    pub fn memcpy_cost(&self, len: usize) -> SimDuration {
        self.memcpy_base + self.copy_cost(len)
    }

    /// `mmap` of `pages` pages.
    pub fn mmap_cost(&self, pages: usize) -> SimDuration {
        self.mmap_base + self.mmap_per_page * pages.saturating_sub(1) as u64
    }

    /// `ibv_rereg_mr` over `pages` pages.
    pub fn rereg_cost(&self, pages: usize) -> SimDuration {
        self.rereg_base + self.rereg_per_page * pages as u64
    }

    /// `ibv_advise_mr` prefetch over `pages` pages.
    pub fn advise_cost(&self, pages: usize) -> SimDuration {
        self.advise_base + self.advise_per_page * pages as u64
    }

    /// Collection-phase latency for `threads` participating threads.
    pub fn collection_cost(&self, threads: usize) -> SimDuration {
        if threads < 2 {
            return SimDuration::ZERO;
        }
        self.collection_pair + self.collection_per_thread * (threads as u64 - 2)
    }

    /// MTT-update cost of one compacted block of `pages` pages under the
    /// given strategy. For [`MttUpdateStrategy::Odp`] the cost is deferred
    /// to the first access (returned here as zero).
    pub fn mtt_update_cost(&self, strategy: MttUpdateStrategy, pages: usize) -> SimDuration {
        match strategy {
            MttUpdateStrategy::Rereg => self.rereg_cost(pages),
            MttUpdateStrategy::Odp => SimDuration::ZERO,
            MttUpdateStrategy::OdpPrefetch => self.advise_cost(pages),
        }
    }

    /// Batched MTT-sync cost for `targets` regions that all map the *same*
    /// `pages` destination frames (a compaction remap's primary vaddr plus
    /// its alias chain).
    ///
    /// The batch is posted as one verb and rides a single
    /// doorbell/transition: the per-region fixed cost (`rereg_base` /
    /// `advise_base`) and the per-target `mmap` install are paid once for
    /// the whole batch rather than per target, because every target aliases
    /// the identical frame set the primary sync already walks. The cost is
    /// therefore that of syncing one `pages`-page region, independent of
    /// the target count — exactly the `extra_remaps × (mmap + mtt_update)`
    /// term the unbatched path pays on top.
    pub fn mtt_batch_sync_cost(
        &self,
        strategy: MttUpdateStrategy,
        pages: usize,
        targets: usize,
    ) -> SimDuration {
        if targets == 0 {
            return SimDuration::ZERO;
        }
        self.mtt_update_cost(strategy, pages)
    }

    /// Full cost of compacting one source block into a destination:
    /// bookkeeping, object copies, metadata merge, vaddr remap, MTT update.
    pub fn block_compaction_cost(
        &self,
        strategy: MttUpdateStrategy,
        pages: usize,
        bytes_copied: usize,
        objects_moved: usize,
    ) -> SimDuration {
        self.compaction_block_overhead
            + self.copy_cost(bytes_copied)
            + self.metadata_per_object * objects_moved as u64
            + self.mmap_cost(pages)
            + self.mtt_update_cost(strategy, pages)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::connectx5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_rdma_read_matches_paper_anchors() {
        let m = LatencyModel::connectx5();
        // Small read with warm cache: ≈1.7us (paper: "as low as 1.7us").
        let small = m.rdma_read_latency(8, true);
        assert!((small.as_micros_f64() - 1.7).abs() < 0.1, "{small}");
        // 2 KiB read stays under 4us (paper: "under 4us").
        let large = m.rdma_read_latency(2048, true);
        assert!(large.as_micros_f64() < 4.0, "{large}");
        assert!(large > small);
    }

    #[test]
    fn cold_cache_read_supports_380kreqs_single_client() {
        // Fig. 11: one client over 8 GiB uniform sees ~380 Kreq/s, i.e.
        // ~2.6us per op, which is the miss-path latency.
        let m = LatencyModel::connectx5();
        let op = m.rdma_read_latency(8, false);
        let rate = 1.0 / op.as_secs_f64();
        assert!((rate - 380_000.0).abs() / 380_000.0 < 0.05, "rate={rate}");
    }

    #[test]
    fn rereg_costs_match_devices() {
        let cx5 = LatencyModel::connectx5();
        let cx3 = LatencyModel::connectx3();
        let c5 = cx5.rereg_cost(1).as_micros_f64();
        let c3 = cx3.rereg_cost(1).as_micros_f64();
        assert!((8.5..=9.6).contains(&c5), "cx5 rereg={c5}");
        assert!((65.0..=75.0).contains(&c3), "cx3 rereg={c3}");
        // 256-page block on CX-3 ≈ 12 ms (Fig. 15 right).
        let big = cx3.rereg_cost(256).as_secs_f64() * 1e3;
        assert!((10.0..=14.0).contains(&big), "cx3 256pg={big}ms");
    }

    #[test]
    fn odp_strategy_costs() {
        let m = LatencyModel::connectx5();
        assert!((62.0..=65.0).contains(&m.odp_miss.unwrap().as_micros_f64()));
        let advise = m.advise_cost(1).as_micros_f64();
        assert!((4.4..=4.7).contains(&advise), "advise={advise}");
        assert_eq!(m.mtt_update_cost(MttUpdateStrategy::Odp, 4), SimDuration::ZERO);
        assert!(LatencyModel::connectx3().odp_miss.is_none());
        assert!(MttUpdateStrategy::Odp.needs_odp());
        assert!(!MttUpdateStrategy::Rereg.needs_odp());
    }

    #[test]
    fn mmap_in_paper_range() {
        let m = LatencyModel::connectx5();
        let c = m.mmap_cost(1).as_micros_f64();
        assert!((1.9..=2.3).contains(&c), "mmap={c}");
        assert!(m.mmap_cost(4) > m.mmap_cost(1));
    }

    #[test]
    fn collection_matches_fig15() {
        let intel = LatencyModel::connectx5();
        let amd = LatencyModel::connectx5_amd();
        assert_eq!(intel.collection_cost(2).as_micros_f64(), 10.0);
        assert_eq!(intel.collection_cost(16).as_micros_f64(), 31.0);
        assert_eq!(amd.collection_cost(2).as_micros_f64(), 2.0);
        // "similar latencies when increasing the number of threads"
        let a16 = amd.collection_cost(16).as_micros_f64();
        assert!((25.0..=35.0).contains(&a16), "amd@16={a16}");
        assert_eq!(intel.collection_cost(1), SimDuration::ZERO);
    }

    #[test]
    fn batched_mtt_sync_amortizes_per_target_costs() {
        let m = LatencyModel::connectx5();
        for strategy in
            [MttUpdateStrategy::Rereg, MttUpdateStrategy::Odp, MttUpdateStrategy::OdpPrefetch]
        {
            // One transition covers the whole batch: cost is independent of
            // the target count and equals a single region's sync.
            let single = m.mtt_update_cost(strategy, 4);
            assert_eq!(m.mtt_batch_sync_cost(strategy, 4, 1), single);
            assert_eq!(m.mtt_batch_sync_cost(strategy, 4, 8), single);
            assert_eq!(m.mtt_batch_sync_cost(strategy, 4, 0), SimDuration::ZERO);
            // The unbatched path pays per target; batching saves the full
            // extra term for every alias beyond the first.
            let unbatched = (m.mmap_cost(4) + single) * 8;
            let batched = m.mmap_cost(4) + m.mtt_batch_sync_cost(strategy, 4, 8);
            let saved = (m.mmap_cost(4) + single) * 7;
            assert_eq!(unbatched - batched, saved);
        }
    }

    #[test]
    fn per_block_compaction_near_100us_on_cx3() {
        let m = LatencyModel::connectx3();
        let c = m.block_compaction_cost(MttUpdateStrategy::Rereg, 1, 32, 1).as_micros_f64();
        assert!((90.0..=110.0).contains(&c), "cx3 block compaction={c}");
    }

    #[test]
    fn local_read_ratio_matches_memcpy_anchor() {
        // §4.2.1: FaRM/CoRM are ~1.33x slower than memcpy for small objects
        // and converge for large (memory-bound) ones.
        let m = LatencyModel::connectx5();
        let small_ratio = m.local_read_cost(8).as_micros_f64() / m.memcpy_cost(8).as_micros_f64();
        assert!((1.2..=1.5).contains(&small_ratio), "ratio={small_ratio}");
        let large_ratio =
            m.local_read_cost(8192).as_micros_f64() / m.memcpy_cost(8192).as_micros_f64();
        assert!(large_ratio < small_ratio);
    }

    #[test]
    fn version_check_grows_with_size_but_stays_small() {
        // §4.2.1: consistency check costs ≤2% for large objects.
        let m = LatencyModel::connectx5();
        let check = m.version_check_cost(2048);
        let read = m.rdma_read_latency(2048, true);
        assert!(check.as_micros_f64() / read.as_micros_f64() < 0.02);
        assert!(m.version_check_cost(64) < check);
    }

    #[test]
    fn rpc_saturation_near_700kreqs() {
        let m = LatencyModel::connectx5();
        let cap = 1.0 / m.rpc_ingress_service.as_secs_f64();
        assert!((cap - 700_000.0).abs() / 700_000.0 < 0.02, "cap={cap}");
    }

    #[test]
    fn nic_saturation_near_2_2mreqs() {
        let m = LatencyModel::connectx5();
        let cap = 1.0 / m.rdma_read_service(32, true).as_secs_f64();
        assert!((2.0e6..=2.4e6).contains(&cap), "cap={cap}");
    }
}
