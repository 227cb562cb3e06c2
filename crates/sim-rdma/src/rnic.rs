//! The simulated RDMA NIC.
//!
//! An [`Rnic`] sits between remote peers and a host [`AddressSpace`]. It
//! owns a Memory Translation Table (MTT) that is synchronized with the OS
//! page table only at registration time (or lazily through ODP), plus an LRU
//! cache of hot MTT entries. One-sided READ/WRITE verbs translate through
//! the MTT — never through the page table directly — so a compaction remap
//! that is not propagated to the NIC makes reads hit stale physical frames.
//! That is the central hazard of the paper, and it is fully observable here.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use corm_sim_core::hash::FastHashMap;
use corm_sim_core::lanes::LaneId;
use corm_sim_core::resource::FifoResource;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_mem::{AddressSpace, DmaSession, FarTier, FrameId, MemError, Residency, PAGE_SIZE};
use corm_trace::{Stage, TraceHandle, Track};

use crate::cache::LruCache;
use crate::fault::{FaultBlock, FaultConfig, FaultInjector, FaultKind};
use crate::latency::LatencyModel;
use crate::sched::{QosConfig, QosScheduler, TrafficClass};
use crate::wq::{ReadReq, ReadResult};

/// Errors surfaced by RNIC verbs. Any error on a one-sided access breaks
/// the issuing queue pair, per reliable-connection semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// No region with this key (or the key was invalidated).
    InvalidKey(u32),
    /// The access falls outside the registered region.
    OutOfRange {
        /// Region key used.
        rkey: u32,
        /// Target virtual address.
        va: u64,
        /// Access length.
        len: usize,
    },
    /// The region is being re-registered; accesses during the window break
    /// the QP (InfiniBand spec behaviour observed by the authors).
    RegionBusy(u32),
    /// ODP was requested on a device without ODP support.
    OdpUnsupported,
    /// An ODP fetch found the page unmapped in the OS page table.
    OdpFault(u64),
    /// Underlying memory error.
    Mem(MemError),
    /// The queue pair is in the error state and must be reconnected.
    QpBroken,
    /// A transient NIC/PCIe fault injected by the fault layer. The region
    /// and data are intact; a reconnect fully recovers.
    InjectedFault,
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::InvalidKey(k) => write!(f, "invalid rkey {k:#x}"),
            RdmaError::OutOfRange { rkey, va, len } => {
                write!(f, "access out of range: rkey={rkey:#x} va={va:#x} len={len}")
            }
            RdmaError::RegionBusy(k) => write!(f, "region {k:#x} busy re-registering"),
            RdmaError::OdpUnsupported => write!(f, "device has no ODP support"),
            RdmaError::OdpFault(va) => write!(f, "ODP fault: va {va:#x} unmapped"),
            RdmaError::Mem(e) => write!(f, "memory error: {e}"),
            RdmaError::QpBroken => write!(f, "queue pair in error state"),
            RdmaError::InjectedFault => write!(f, "transient NIC/PCIe fault (injected)"),
        }
    }
}

impl std::error::Error for RdmaError {}

impl From<MemError> for RdmaError {
    fn from(e: MemError) -> Self {
        RdmaError::Mem(e)
    }
}

/// A registered memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryRegion {
    /// Key for local access.
    pub lkey: u32,
    /// Key handed to remote peers.
    pub rkey: u32,
    /// Base virtual address (page aligned).
    pub base: u64,
    /// Length in pages.
    pub pages: usize,
    /// Whether the region uses On-Demand Paging.
    pub odp: bool,
}

impl MemoryRegion {
    /// Whether `[va, va+len)` lies inside the region.
    pub fn covers(&self, va: u64, len: usize) -> bool {
        let end = self.base + (self.pages * PAGE_SIZE) as u64;
        va >= self.base && va.checked_add(len as u64).is_some_and(|e| e <= end)
    }
}

/// RNIC configuration.
#[derive(Debug, Clone)]
pub struct RnicConfig {
    /// The device/CPU latency model.
    pub model: LatencyModel,
    /// Capacity of the on-chip MTT translation cache, in page entries.
    pub cache_entries: usize,
    /// Deterministic fault injection. `None` (the default) disables it
    /// entirely: the NIC behaves bit-identically to a fault-free build.
    pub faults: Option<FaultConfig>,
    /// Number of parallel servers in the inbound verb engine that serves
    /// doorbell-batched WQEs. Real ConnectX processing units pipeline, but
    /// a single FIFO server calibrated to `nic_read_service` reproduces the
    /// aggregate plateau; widen for hypothetical multi-engine devices.
    pub engine_width: usize,
    /// Number of independent on-NIC processing units. Each unit owns its
    /// own inbound [`FifoResource`] (with `engine_width` servers) and WQEs
    /// are dispatched round-robin across units, the NP-RDMA model of an
    /// internally parallel RNIC. At `1` (the default) dispatch, virtual
    /// time, and the fault-draw order are byte-identical to the
    /// single-engine NIC, which keeps seeded replays stable.
    pub processing_units: usize,
    /// Number of MTT shards. Translations are sharded by page-aligned
    /// virtual address, so concurrent one-sided verbs from different QPs
    /// touching different pages never contend on the same translation
    /// lock. The translation cache splits its capacity evenly across
    /// shards; `1` reproduces the monolithic MTT exactly.
    pub mtt_shards: usize,
    /// Trace recorder for NIC-side spans (doorbells, engine service, MTT
    /// and fault events). The default is disabled; recording is purely
    /// observational, so it never changes virtual time or fault draws.
    pub trace: TraceHandle,
    /// SLO-class-aware engine scheduling for the batched verb path. `None`
    /// (the default) and a uniform (equal-weight) config both run the
    /// plain round-robin engine dispatch with no scheduler; skewed weights
    /// buy latency-class isolation — see [`crate::sched`].
    pub qos: Option<QosConfig>,
    /// Number of execution lanes the NIC is partitioned for (windowed
    /// lane-parallel simulation). At `1` (the default) everything is
    /// byte-identical to the classic NIC. Above `1`: fault draws come from
    /// per-lane decorrelated RNG streams (lane 0 keeps the classic
    /// stream), and lane-tagged doorbell batches are pinned to engine unit
    /// `lane % processing_units` instead of the round-robin cursor, so
    /// dispatch is a pure function of the lane rather than of wall-clock
    /// arrival interleaving.
    pub lanes: usize,
    /// The far tier behind unpinned memory, when the host runs a pin
    /// budget. `None` (the default) disables tiering entirely: residency
    /// is never consulted and the NIC is byte-identical to the pre-tiering
    /// build. When set, an access resolving to a non-pinned frame pays the
    /// tier's fault-path charge (see [`RnicConfig::dynamic_pin`]).
    pub tier: Option<Arc<FarTier>>,
    /// Whether the NIC supports NP-RDMA-style dynamic pinning: an MTT
    /// lookup that resolves to an unpinned or far frame triggers a
    /// host round trip that (fetches and) pins the page, charging
    /// `TierConfig::dynamic_pin` instead of failing. Without it, an ODP
    /// region degenerates to its existing lazy fault (the page is serviced
    /// in place and stays unpinned), and a non-ODP region takes the
    /// pinned-only *hard miss*: a synchronous host fault charged
    /// `TierConfig::hard_miss_extra` on top of the fetch.
    pub dynamic_pin: bool,
}

impl Default for RnicConfig {
    fn default() -> Self {
        RnicConfig {
            model: LatencyModel::default(),
            cache_entries: 16 * 1024,
            faults: None,
            engine_width: 1,
            processing_units: 1,
            mtt_shards: 8,
            trace: TraceHandle::disabled(),
            qos: None,
            lanes: 1,
            tier: None,
            dynamic_pin: false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct MttEntry {
    frame: FrameId,
    epoch: u64,
}

/// Region/key metadata, touched on every verb only for a read-mostly
/// lookup. Registration paths take the write lock; the hot path never
/// does.
#[derive(Debug)]
struct RegionTable {
    regions: FastHashMap<u32, MemoryRegion>,
    /// Regions mid-`rereg_mr`: rkey → end of the busy window.
    busy_until: FastHashMap<u32, SimTime>,
    next_key: u32,
}

/// One MTT shard: the translations whose vpn hashes here plus that slice
/// of the on-chip translation cache. Concurrent verbs on different pages
/// lock different shards.
#[derive(Debug)]
struct MttShard {
    mtt: FastHashMap<u64, MttEntry>,
    cache: LruCache<u64, ()>,
}

/// Doorbell-batch-scoped MTT shard guards. The serve paths prescan which
/// shards a batch's pages hash to and lock exactly those once, in
/// ascending index order, instead of locking per page per WQE. Ascending
/// acquisition gives concurrent batches one global order, and every other
/// shard user (registration, rereg, advise, the single-verb path) holds at
/// most one shard at a time, so no cycle is possible. Wall-clock-only: the
/// guards serialize exactly the accesses the per-page locks would have,
/// batch-at-a-time instead of page-at-a-time, and virtual time never
/// depends on lock timing.
struct ShardGuards<'a> {
    guards: Vec<Option<MutexGuard<'a, MttShard>>>,
}

impl<'a> ShardGuards<'a> {
    /// The held guard for shard `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the prescan did not cover `idx` — the mask is computed
    /// from the same request list the serve loop walks, so a miss is a
    /// bug, not a recoverable state (locking late would break the
    /// ascending-order invariant).
    #[inline]
    fn shard(&mut self, idx: usize) -> &mut MttShard {
        self.guards[idx].as_mut().expect("shard prescan covered every page")
    }
}

/// The outcome of a one-sided verb: end-to-end latency plus diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerbOutcome {
    /// End-to-end latency charged to the issuing client.
    pub latency: SimDuration,
    /// Whether every page translation hit the RNIC cache.
    pub cache_hit: bool,
    /// Number of ODP misses taken.
    pub odp_misses: u32,
    /// Number of dynamic-pin faults taken (tiering only; always zero when
    /// no far tier is attached).
    pub pin_faults: u32,
}

/// Counters exposed for the benchmark harness.
#[derive(Debug, Default)]
pub struct RnicStats {
    /// One-sided reads served.
    pub reads: AtomicU64,
    /// One-sided writes served.
    pub writes: AtomicU64,
    /// Payload bytes read.
    pub bytes_read: AtomicU64,
    /// ODP misses taken.
    pub odp_misses: AtomicU64,
    /// `rereg_mr` calls.
    pub reregs: AtomicU64,
    /// `advise_mr` calls.
    pub advises: AtomicU64,
    /// Batched `rereg_mr` verbs (each covers every region in its batch).
    pub rereg_batches: AtomicU64,
    /// Batched `advise_mr` verbs (each covers every target in its batch).
    pub advise_batches: AtomicU64,
    /// Injected transient NIC/PCIe faults (verbs failed).
    pub injected_faults: AtomicU64,
    /// Injected QP breaks (verbs failed with `QpBroken`).
    pub injected_qp_breaks: AtomicU64,
    /// Injected latency spikes (verbs delayed).
    pub injected_delays: AtomicU64,
    /// Virtual time added by injected latency spikes, in nanoseconds.
    pub injected_delay_ns: AtomicU64,
    /// Verbs forced down the MTT-cache-miss path.
    pub forced_cache_misses: AtomicU64,
    /// Doorbells rung (each admits one posted batch).
    pub doorbells: AtomicU64,
    /// WQEs executed through the batched path (including failed, excluding
    /// flushed ones, which never reach the NIC).
    pub wqes: AtomicU64,
    /// Dynamic-pin faults taken (tiering with [`RnicConfig::dynamic_pin`]).
    pub pin_faults: AtomicU64,
    /// Pages fetched from the far tier on the NIC fault path.
    pub tier_fetches: AtomicU64,
    /// Pinned-only hard misses taken (tiering without dynamic pin or ODP).
    pub hard_misses: AtomicU64,
}

/// The simulated RDMA-capable NIC.
pub struct Rnic {
    aspace: Arc<AddressSpace>,
    regions: RwLock<RegionTable>,
    /// MTT + translation-cache shards, indexed by `vpn % shards.len()`.
    shards: Box<[Mutex<MttShard>]>,
    config: RnicConfig,
    /// Fault injectors, one per execution lane (a single injector — the
    /// classic stream — when `RnicConfig::lanes` is 1).
    faults: Option<Box<[FaultInjector]>>,
    /// Inbound verb engines, one per processing unit, each serving
    /// doorbell-batched WQEs in FIFO order. Unused when `sched` is on —
    /// the scheduler owns the engine capacity then.
    engines: Box<[Mutex<FifoResource>]>,
    /// Round-robin cursor for WQE dispatch across processing units.
    next_unit: AtomicUsize,
    /// The SLO-class scheduler, when `RnicConfig::qos` holds a weighted
    /// config. It replaces the per-unit FIFO dispatch for doorbell-batched
    /// WQEs.
    sched: Option<Mutex<QosScheduler>>,
    /// Public counters.
    pub stats: RnicStats,
}

impl fmt::Debug for Rnic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rnic").field("device", &self.config.model.device).finish()
    }
}

impl Rnic {
    /// Creates a NIC attached to `aspace`.
    pub fn new(aspace: Arc<AddressSpace>, config: RnicConfig) -> Self {
        let n_lanes = config.lanes.max(1) as u32;
        let faults = config.faults.clone().map(|cfg| {
            (0..n_lanes)
                .map(|lane| FaultInjector::for_lane(cfg.clone(), lane))
                .collect::<Box<[_]>>()
        });
        let n_shards = config.mtt_shards.max(1);
        // Split the cache budget evenly; every shard keeps at least one
        // entry so small caches still cache.
        let per_shard = config.cache_entries.div_ceil(n_shards).max(1);
        let shards = (0..n_shards)
            .map(|_| {
                Mutex::new(MttShard {
                    mtt: FastHashMap::default(),
                    cache: LruCache::new(per_shard),
                })
            })
            .collect();
        let units = config.processing_units.max(1);
        let engines =
            (0..units).map(|_| Mutex::new(FifoResource::new(config.engine_width.max(1)))).collect();
        // A uniform config has nothing to arbitrate: it *is* the plain
        // engine dispatch, so only a weighted config gets a scheduler.
        let sched = config
            .qos
            .clone()
            .filter(|qos| !qos.is_uniform())
            .map(|qos| Mutex::new(QosScheduler::new(qos, units, config.engine_width.max(1))));
        Rnic {
            aspace,
            regions: RwLock::new(RegionTable {
                regions: FastHashMap::default(),
                busy_until: FastHashMap::default(),
                next_key: 0x1000,
            }),
            shards,
            config,
            faults,
            engines,
            next_unit: AtomicUsize::new(0),
            sched,
            stats: RnicStats::default(),
        }
    }

    /// The MTT shard responsible for a virtual page number.
    #[inline]
    fn shard_of(&self, vpn: u64) -> &Mutex<MttShard> {
        &self.shards[(vpn % self.shards.len() as u64) as usize]
    }

    /// Locks the MTT shards a doorbell batch will touch, once, in
    /// ascending index order. Pages of requests that later fail region
    /// checks are harmlessly over-approximated into the mask. Returns
    /// `None` when the NIC has more shards than the 64-bit mask can name —
    /// callers then fall back to per-page locking, the exact pre-batch
    /// behaviour.
    fn lock_batch_shards(&self, reqs: &[ReadReq]) -> Option<ShardGuards<'_>> {
        let n = self.shards.len();
        if n > 64 {
            return None;
        }
        let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let mut mask = 0u64;
        for &ReadReq { va, len, .. } in reqs {
            let first = va / PAGE_SIZE as u64;
            let last = (va + len.max(1) as u64 - 1) / PAGE_SIZE as u64;
            if last - first + 1 >= n as u64 {
                mask = full;
            } else {
                for vpn in first..=last {
                    mask |= 1 << (vpn % n as u64);
                }
            }
            if mask == full {
                break;
            }
        }
        let mut guards = Vec::with_capacity(n);
        for (i, shard) in self.shards.iter().enumerate() {
            guards.push(((mask >> i) & 1 == 1).then(|| shard.lock()));
        }
        Some(ShardGuards { guards })
    }

    /// The fault injector (lane 0's — the classic stream), if fault
    /// injection is enabled.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults_for(LaneId(0))
    }

    /// The fault injector serving `lane`'s verb traffic, if injection is
    /// enabled. Lanes beyond `RnicConfig::lanes` fold back modulo.
    pub fn faults_for(&self, lane: LaneId) -> Option<&FaultInjector> {
        self.faults.as_ref().map(|f| &f[lane.0 as usize % f.len()])
    }

    /// The replay log of injected faults on lane 0 (empty when injection
    /// is off). Use [`Rnic::fault_log_for`] for other lanes.
    pub fn fault_log(&self) -> Vec<(u64, FaultKind)> {
        self.fault_log_for(LaneId(0))
    }

    /// The replay log of faults injected on `lane`'s stream.
    pub fn fault_log_for(&self, lane: LaneId) -> Vec<(u64, FaultKind)> {
        self.faults_for(lane).map(|f| f.fired()).unwrap_or_default()
    }

    /// The latency model in force.
    pub fn model(&self) -> &LatencyModel {
        &self.config.model
    }

    /// The trace recorder (disabled unless the config enabled one).
    pub fn trace(&self) -> &TraceHandle {
        &self.config.trace
    }

    /// The host address space this NIC is attached to.
    pub fn aspace(&self) -> &Arc<AddressSpace> {
        &self.aspace
    }

    /// Registers `[base, base + pages*PAGE_SIZE)`. Snapshot-copies the
    /// current page-table entries into the MTT (pinning semantics) and
    /// returns keys. Cost is the same order as `rereg_mr`.
    pub fn register(
        &self,
        base: u64,
        pages: usize,
        odp: bool,
    ) -> Result<(MemoryRegion, SimDuration), RdmaError> {
        if odp && self.config.model.odp_miss.is_none() {
            return Err(RdmaError::OdpUnsupported);
        }
        if !base.is_multiple_of(PAGE_SIZE as u64) {
            return Err(RdmaError::Mem(MemError::Unaligned(base)));
        }
        let mut entries = Vec::with_capacity(pages);
        for i in 0..pages {
            let va = base + (i * PAGE_SIZE) as u64;
            let t = self.aspace.translate(va)?;
            entries.push((va / PAGE_SIZE as u64, MttEntry { frame: t.frame, epoch: t.epoch }));
        }
        let (lkey, rkey) = {
            let mut rt = self.regions.write();
            let lkey = rt.next_key;
            let rkey = rt.next_key + 1;
            rt.next_key += 2;
            (lkey, rkey)
        };
        for (vpn, e) in entries {
            self.shard_of(vpn).lock().mtt.insert(vpn, e);
        }
        let mr = MemoryRegion { lkey, rkey, base, pages, odp };
        self.regions.write().regions.insert(rkey, mr);
        Ok((mr, self.config.model.rereg_cost(pages)))
    }

    /// Deregisters a region, dropping its MTT entries.
    pub fn deregister(&self, rkey: u32) -> Result<(), RdmaError> {
        let mr = {
            let mut rt = self.regions.write();
            let mr = rt.regions.remove(&rkey).ok_or(RdmaError::InvalidKey(rkey))?;
            rt.busy_until.remove(&rkey);
            mr
        };
        for i in 0..mr.pages {
            let vpn = mr.base / PAGE_SIZE as u64 + i as u64;
            let mut shard = self.shard_of(vpn).lock();
            shard.mtt.remove(&vpn);
            shard.cache.remove(&vpn);
        }
        Ok(())
    }

    /// `ibv_rereg_mr`: re-snapshots the region's translations, preserving
    /// keys. The region is unavailable for `[now, now+cost)`; one-sided
    /// accesses inside the window break the QP.
    pub fn rereg(&self, rkey: u32, now: SimTime) -> Result<SimDuration, RdmaError> {
        // Open the busy window first: concurrent one-sided accesses see
        // RegionBusy before any translation changes, as on real hardware.
        let (mr, cost) = {
            let mut rt = self.regions.write();
            let mr = *rt.regions.get(&rkey).ok_or(RdmaError::InvalidKey(rkey))?;
            let cost = self.config.model.rereg_cost(mr.pages);
            rt.busy_until.insert(rkey, now + cost);
            (mr, cost)
        };
        for i in 0..mr.pages {
            let va = mr.base + (i * PAGE_SIZE) as u64;
            let t = self.aspace.translate(va)?;
            let vpn = va / PAGE_SIZE as u64;
            let mut shard = self.shard_of(vpn).lock();
            shard.mtt.insert(vpn, MttEntry { frame: t.frame, epoch: t.epoch });
            shard.cache.remove(&vpn);
        }
        self.stats.reregs.fetch_add(1, Ordering::Relaxed);
        Ok(cost)
    }

    /// Batched `ibv_rereg_mr`: re-snapshots every region in `rkeys` with a
    /// single posted verb, preserving keys. All regions in the batch share
    /// one busy window `[now, now + cost)` — the batch rides one
    /// doorbell/transition, so the cost is that of re-registering the
    /// largest region in the batch rather than the per-region sum (the
    /// compaction batch's regions all alias the same destination frames).
    ///
    /// The whole batch is validated before any region is touched: an
    /// unknown key fails the batch with no busy window opened.
    pub fn rereg_batch(&self, rkeys: &[u32], now: SimTime) -> Result<SimDuration, RdmaError> {
        if rkeys.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        let (mrs, cost) = {
            let mut rt = self.regions.write();
            let mut mrs = Vec::with_capacity(rkeys.len());
            let mut max_pages = 0usize;
            for &rkey in rkeys {
                let mr = *rt.regions.get(&rkey).ok_or(RdmaError::InvalidKey(rkey))?;
                max_pages = max_pages.max(mr.pages);
                mrs.push(mr);
            }
            let cost = self.config.model.rereg_cost(max_pages);
            // Open every busy window before any translation changes, as in
            // the single-region path.
            for &rkey in rkeys {
                rt.busy_until.insert(rkey, now + cost);
            }
            (mrs, cost)
        };
        for mr in &mrs {
            for i in 0..mr.pages {
                let va = mr.base + (i * PAGE_SIZE) as u64;
                let t = self.aspace.translate(va)?;
                let vpn = va / PAGE_SIZE as u64;
                let mut shard = self.shard_of(vpn).lock();
                shard.mtt.insert(vpn, MttEntry { frame: t.frame, epoch: t.epoch });
                shard.cache.remove(&vpn);
            }
        }
        self.stats.reregs.fetch_add(rkeys.len() as u64, Ordering::Relaxed);
        self.stats.rereg_batches.fetch_add(1, Ordering::Relaxed);
        Ok(cost)
    }

    /// Batched `ibv_advise_mr`: prefetches translations for every
    /// `(rkey, va, pages)` target with a single posted verb. Costs one
    /// advise over the largest target (the batch shares a
    /// doorbell/transition; compaction's targets all map the same frames).
    ///
    /// The whole batch is validated before any translation is installed.
    pub fn advise_batch(&self, targets: &[(u32, u64, usize)]) -> Result<SimDuration, RdmaError> {
        if targets.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        let mut max_pages = 0usize;
        {
            let rt = self.regions.read();
            for &(rkey, va, pages) in targets {
                let mr = rt.regions.get(&rkey).ok_or(RdmaError::InvalidKey(rkey))?;
                if !mr.odp {
                    return Err(RdmaError::OdpUnsupported);
                }
                if !mr.covers(va, pages * PAGE_SIZE) {
                    return Err(RdmaError::OutOfRange { rkey, va, len: pages * PAGE_SIZE });
                }
                max_pages = max_pages.max(pages);
            }
        }
        for &(_, va, pages) in targets {
            for i in 0..pages {
                let page_va = va + (i * PAGE_SIZE) as u64;
                let t = self.aspace.translate(page_va)?;
                let vpn = page_va / PAGE_SIZE as u64;
                self.shard_of(vpn)
                    .lock()
                    .mtt
                    .insert(vpn, MttEntry { frame: t.frame, epoch: t.epoch });
            }
        }
        self.stats.advises.fetch_add(targets.len() as u64, Ordering::Relaxed);
        self.stats.advise_batches.fetch_add(1, Ordering::Relaxed);
        Ok(self.config.model.advise_cost(max_pages))
    }

    /// `ibv_advise_mr` prefetch: refreshes translations of an ODP region's
    /// pages ahead of the first access.
    pub fn advise(&self, rkey: u32, va: u64, pages: usize) -> Result<SimDuration, RdmaError> {
        let mr = {
            let rt = self.regions.read();
            *rt.regions.get(&rkey).ok_or(RdmaError::InvalidKey(rkey))?
        };
        if !mr.odp {
            return Err(RdmaError::OdpUnsupported);
        }
        if !mr.covers(va, pages * PAGE_SIZE) {
            return Err(RdmaError::OutOfRange { rkey, va, len: pages * PAGE_SIZE });
        }
        for i in 0..pages {
            let page_va = va + (i * PAGE_SIZE) as u64;
            let t = self.aspace.translate(page_va)?;
            let vpn = page_va / PAGE_SIZE as u64;
            self.shard_of(vpn).lock().mtt.insert(vpn, MttEntry { frame: t.frame, epoch: t.epoch });
        }
        self.stats.advises.fetch_add(1, Ordering::Relaxed);
        Ok(self.config.model.advise_cost(pages))
    }

    /// One-sided RDMA READ of `buf.len()` bytes at `(rkey, va)`.
    ///
    /// Translation is performed through the MTT. For non-ODP regions the
    /// snapshot is authoritative even if stale — the dangerous case. For
    /// ODP regions, stale/missing entries are refetched from the OS page
    /// table at the ODP miss cost.
    pub fn read(
        &self,
        rkey: u32,
        va: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<VerbOutcome, RdmaError> {
        let outcome = self.access(rkey, va, buf.len(), now, AccessDir::Read(buf))?;
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_read.fetch_add(outcome.1 as u64, Ordering::Relaxed);
        Ok(outcome.0)
    }

    /// One-sided RDMA WRITE of `data` at `(rkey, va)`.
    pub fn write(
        &self,
        rkey: u32,
        va: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<VerbOutcome, RdmaError> {
        let outcome = self.access(rkey, va, data.len(), now, AccessDir::Write(data))?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(outcome.0)
    }

    /// Executes one doorbell batch of READs through the inbound engine,
    /// DMAing each payload straight into `outs[k]` (resized to the
    /// request's length).
    ///
    /// The batch arrives at `now + doorbell_cost` — one doorbell pays for
    /// the whole batch. Each request then runs the full verb path (fault
    /// draw, region checks, per-page MTT/cache lookup, DMA) and is admitted
    /// into the engine for its service time; its completion lands at
    /// `engine_done + (end_to_end_latency − service)`, the same composition
    /// the closed-loop simulations use. The first failing request stops
    /// execution: the remaining requests are *flushed* with
    /// [`RdmaError::QpBroken`] and consume no fault draws, mirroring the
    /// sequential path where a broken QP rejects follow-up verbs before
    /// they reach the NIC. Callers ([`crate::QueuePair::read_batch_into`])
    /// are responsible for moving the QP to the error state on failure.
    ///
    /// Results are pushed in posting order and NOT sorted — the caller owns
    /// completion ordering. The batch carries an execution-lane tag: faults
    /// draw from `lane`'s injector stream and, when the NIC is configured
    /// with `lanes > 1`, engine dispatch pins to `lane % processing_units`.
    /// Lane 0 on a single-lane NIC is exactly the classic untagged path.
    pub(crate) fn serve_reads_into_on(
        &self,
        lane: LaneId,
        reqs: &[ReadReq],
        outs: &mut [Vec<u8>],
        now: SimTime,
        results: &mut Vec<ReadResult>,
    ) {
        let model = &self.config.model;
        let arrival = now + model.doorbell_cost;
        self.stats.doorbells.fetch_add(1, Ordering::Relaxed);
        self.config.trace.span(Track::Nic, Stage::Doorbell, 0, now, model.doorbell_cost);
        // Shared-state locks are taken once per doorbell, not once per
        // request: the region snapshot, the DMA session, and the (single)
        // engine amortize across the batch. Virtual-time results are
        // identical to per-request locking — these guards only serialize
        // wall-clock access.
        let rt = self.regions.read();
        let dma = self.aspace.phys().dma();
        let mut sched = self.sched.as_ref().map(|s| s.lock());
        let mut single_engine =
            (sched.is_none() && self.engines.len() == 1).then(|| self.engines[0].lock());
        let mut fault = self.faults_for(lane).map(|inj| inj.begin_block());
        // Last in the lock order (regions -> sched/engine -> fault ->
        // shards ascending): hold the batch's MTT shards for the whole
        // doorbell instead of relocking per page.
        let mut held = self.lock_batch_shards(reqs);
        let mut memo = None;
        let (mut n_wqes, mut n_reads, mut bytes_read) = (0u64, 0u64, 0u64);
        let mut flush_from = None;
        for (k, req) in reqs.iter().enumerate() {
            n_wqes += 1;
            let out = &mut outs[k];
            out.resize(req.len, 0);
            match self.access_locked(
                &rt,
                &dma,
                &mut fault,
                &mut held,
                &mut memo,
                req.rkey,
                req.va,
                req.len,
                arrival,
                AccessDir::Read(out),
            ) {
                Ok((verb, _)) => {
                    n_reads += 1;
                    bytes_read += req.len as u64;
                    let mut service = model.rdma_read_service(req.len, verb.cache_hit);
                    if verb.odp_misses > 0 {
                        service +=
                            model.odp_miss.unwrap_or(SimDuration::ZERO) * verb.odp_misses as u64;
                    }
                    let (done, unit) = match (&mut sched, &mut single_engine) {
                        (Some(sched), _) => {
                            let adm = sched.admit(req.tenant, req.class, arrival, service);
                            if adm.class_wait > SimDuration::ZERO {
                                self.config.trace.span(
                                    Track::Nic,
                                    Stage::QosClassWait,
                                    req.wr_id,
                                    arrival,
                                    adm.class_wait,
                                );
                            }
                            (adm.done, adm.unit)
                        }
                        (None, Some(engine)) => (engine.admit(arrival, service), 0),
                        (None, None) => self.dispatch(lane, arrival, service),
                    };
                    self.config.trace.span(
                        Track::EngineUnit(unit as u32),
                        Stage::EngineService,
                        req.wr_id,
                        SimTime::from_nanos(done.as_nanos() - service.as_nanos()),
                        service,
                    );
                    let completed_at = done + verb.latency.saturating_sub(service);
                    results.push(ReadResult { wr_id: req.wr_id, completed_at, result: Ok(verb) });
                }
                Err(e) => {
                    results.push(ReadResult {
                        wr_id: req.wr_id,
                        completed_at: arrival,
                        result: Err(e),
                    });
                    flush_from = Some(k + 1);
                    break;
                }
            }
        }
        if let Some(rest) = flush_from {
            // Flushed requests never reach the NIC and consume no fault
            // draws.
            for req in &reqs[rest..] {
                results.push(ReadResult {
                    wr_id: req.wr_id,
                    completed_at: arrival,
                    result: Err(RdmaError::QpBroken),
                });
            }
        }
        self.stats.wqes.fetch_add(n_wqes, Ordering::Relaxed);
        if n_reads > 0 {
            self.stats.reads.fetch_add(n_reads, Ordering::Relaxed);
            self.stats.bytes_read.fetch_add(bytes_read, Ordering::Relaxed);
        }
    }

    /// Admits one WQE's engine service. On a single-lane NIC this is the
    /// classic round-robin across processing units (with one unit, exactly
    /// the single-engine FIFO admission). On a multi-lane NIC the unit is
    /// `lane % processing_units` — a pure function of the lane, so
    /// dispatch never depends on how parallel lanes interleave in wall
    /// clock. Returns the completion time and the unit index that served
    /// the WQE (which names its trace track).
    fn dispatch(&self, lane: LaneId, arrival: SimTime, service: SimDuration) -> (SimTime, usize) {
        let unit = if self.config.lanes > 1 {
            lane.0 as usize % self.engines.len()
        } else {
            self.next_unit.fetch_add(1, Ordering::Relaxed) % self.engines.len()
        };
        (self.engines[unit].lock().admit(arrival, service), unit)
    }

    /// Number of on-NIC processing units.
    pub fn processing_units(&self) -> usize {
        self.engines.len()
    }

    /// Total WQEs admitted into the inbound verb engines, summed over all
    /// processing units (or through the QoS scheduler when one is on).
    pub fn engine_admitted(&self) -> u64 {
        match &self.sched {
            Some(s) => s.lock().admitted(),
            None => self.engines.iter().map(|e| e.lock().admitted()).sum(),
        }
    }

    /// Cumulative busy time of the inbound verb engines, summed over all
    /// processing units. Differences of this across a measurement window,
    /// divided by the window length, give the engine utilization over that
    /// window.
    pub fn engine_busy(&self) -> SimDuration {
        match &self.sched {
            Some(s) => s.lock().busy(),
            None => {
                self.engines.iter().map(|e| e.lock().busy()).fold(SimDuration::ZERO, |a, b| a + b)
            }
        }
    }

    /// Mean inbound-engine utilization over `[0, horizon]`, across every
    /// server of every processing unit.
    pub fn engine_utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        if let Some(s) = &self.sched {
            return s.lock().utilization(horizon);
        }
        let servers: usize = self.engines.iter().map(|e| e.lock().servers()).sum();
        self.engine_busy().as_secs_f64() / (horizon.as_secs_f64() * servers as f64)
    }

    /// Whether the SLO-class scheduler is driving engine admission (only
    /// for a weighted `RnicConfig::qos`).
    pub fn qos_enabled(&self) -> bool {
        self.sched.is_some()
    }

    /// WQEs admitted per traffic class (all zero without a scheduler,
    /// which does not observe classes).
    pub fn qos_class_admitted(&self) -> [u64; TrafficClass::COUNT] {
        match &self.sched {
            Some(s) => s.lock().class_admitted(),
            None => [0; TrafficClass::COUNT],
        }
    }

    /// Scheduler-imposed wait per traffic class, in nanoseconds (all zero
    /// without a scheduler).
    pub fn qos_class_wait_ns(&self) -> [u64; TrafficClass::COUNT] {
        match &self.sched {
            Some(s) => s.lock().class_wait_ns(),
            None => [0; TrafficClass::COUNT],
        }
    }

    fn access(
        &self,
        rkey: u32,
        va: u64,
        len: usize,
        now: SimTime,
        dir: AccessDir<'_>,
    ) -> Result<(VerbOutcome, usize), RdmaError> {
        let rt = self.regions.read();
        let dma = self.aspace.phys().dma();
        let mut fault = self.faults_for(LaneId(0)).map(|inj| inj.begin_block());
        self.access_locked(&rt, &dma, &mut fault, &mut None, &mut None, rkey, va, len, now, dir)
    }

    /// The verb path proper, under a caller-held region-table snapshot,
    /// DMA session, and fault-draw block. The batched serve paths acquire
    /// all three once per doorbell batch, plus batch-held shard guards in
    /// `held` and a one-entry region memo in `memo` (valid because the
    /// region snapshot is pinned and every WQE in a batch shares one
    /// arrival time); the sequential [`Rnic::read`]/[`Rnic::write`]
    /// wrappers pass `None` for both and acquire per verb.
    #[allow(clippy::too_many_arguments)]
    fn access_locked(
        &self,
        rt: &RegionTable,
        dma: &DmaSession<'_>,
        fault: &mut Option<FaultBlock<'_>>,
        held: &mut Option<ShardGuards<'_>>,
        memo: &mut Option<(u32, MemoryRegion)>,
        rkey: u32,
        va: u64,
        len: usize,
        now: SimTime,
        mut dir: AccessDir<'_>,
    ) -> Result<(VerbOutcome, usize), RdmaError> {
        // Consult the fault layer first: injected failures model the NIC or
        // the fabric going wrong before the verb touches any state.
        let mut injected_delay = SimDuration::ZERO;
        let mut forced_miss = false;
        let trace = &self.config.trace;
        if let Some(inj) = fault.as_mut() {
            let decision = inj.decide();
            if decision.is_some() {
                // The draw fired: record it as an instantaneous NIC event.
                // Tracing observes the decision after the fact — it never
                // consumes draws of its own, so replay order is untouched.
                trace.event(Track::Nic, Stage::FaultDraw, 0, now);
            }
            match decision {
                Some(FaultKind::QpBreak) => {
                    self.stats.injected_qp_breaks.fetch_add(1, Ordering::Relaxed);
                    return Err(RdmaError::QpBroken);
                }
                Some(FaultKind::Transient) => {
                    self.stats.injected_faults.fetch_add(1, Ordering::Relaxed);
                    return Err(RdmaError::InjectedFault);
                }
                Some(FaultKind::DelaySpike) => {
                    injected_delay = inj.delay_spike();
                    self.stats.injected_delays.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .injected_delay_ns
                        .fetch_add(injected_delay.as_nanos(), Ordering::Relaxed);
                    trace.sample(Stage::FaultDelay, injected_delay);
                }
                Some(FaultKind::CacheMiss) => {
                    forced_miss = true;
                    self.stats.forced_cache_misses.fetch_add(1, Ordering::Relaxed);
                }
                None => {}
            }
        }
        let mr = match memo {
            Some((k, mr)) if *k == rkey => *mr,
            _ => {
                let mr = *rt.regions.get(&rkey).ok_or(RdmaError::InvalidKey(rkey))?;
                if !rt.busy_until.is_empty() {
                    if let Some(&until) = rt.busy_until.get(&rkey) {
                        if now < until {
                            return Err(RdmaError::RegionBusy(rkey));
                        }
                    }
                }
                *memo = Some((rkey, mr));
                mr
            }
        };
        if !mr.covers(va, len) {
            return Err(RdmaError::OutOfRange { rkey, va, len });
        }
        // Resolve the translation of every page the access touches. Each
        // page locks only its own MTT shard, so concurrent verbs from
        // different QPs touching different pages proceed in parallel.
        // Translations live on the stack for typical verb sizes; only an
        // access spanning more than eight pages spills to the heap.
        let first_vpn = va / PAGE_SIZE as u64;
        let last_vpn = (va + len.max(1) as u64 - 1) / PAGE_SIZE as u64;
        let pages = (last_vpn - first_vpn + 1) as usize;
        let mut inline = [FrameId(0); 8];
        let mut spill = Vec::new();
        let frames: &mut [FrameId] = if pages <= inline.len() {
            &mut inline[..pages]
        } else {
            spill.resize(pages, FrameId(0));
            &mut spill
        };
        let mut all_hit = true;
        let mut odp_misses = 0u32;
        let n_shards = self.shards.len() as u64;
        for vpn in first_vpn..=last_vpn {
            let mut fresh;
            let shard: &mut MttShard = match held {
                Some(h) => h.shard((vpn % n_shards) as usize),
                None => {
                    fresh = self.shard_of(vpn).lock();
                    &mut fresh
                }
            };
            if forced_miss {
                // A forced MTT-cache-miss fault evicts the page's
                // translation so the normal lookup below takes a genuine
                // miss.
                shard.cache.remove(&vpn);
            }
            let entry = match shard.mtt.get(&vpn).copied() {
                Some(e) if !mr.odp => e,
                maybe => {
                    // ODP region (or missing entry on one): validate epoch
                    // against the OS page table.
                    debug_assert!(mr.odp || maybe.is_some());
                    let current = self
                        .aspace
                        .translate(vpn * PAGE_SIZE as u64)
                        .map_err(|_| RdmaError::OdpFault(vpn * PAGE_SIZE as u64))?;
                    match maybe {
                        Some(e) if e.epoch == current.epoch => e,
                        _ => {
                            // Stale or absent: take the ODP miss and install.
                            odp_misses += 1;
                            self.stats.odp_misses.fetch_add(1, Ordering::Relaxed);
                            let e = MttEntry { frame: current.frame, epoch: current.epoch };
                            shard.mtt.insert(vpn, e);
                            e
                        }
                    }
                }
            };
            if shard.cache.get(&vpn).is_none() {
                all_hit = false;
                shard.cache.insert(vpn, ());
            }
            frames[(vpn - first_vpn) as usize] = entry.frame;
        }
        // Tiering fault path (NP-RDMA): an access that resolved to an
        // unpinned or far frame cannot DMA yet — the page must be made
        // DMA-able first, and the cost model charges the host round trip
        // into the verb's latency. Deliberately *after* every fault draw
        // and translation above and *before* the DMA below: residency is a
        // deterministic check that consumes no RNG, so seeded fault-draw
        // order is byte-identical with and without a tier attached.
        let mut pin_faults = 0u32;
        let mut tier_delay = SimDuration::ZERO;
        if let Some(tier) = &self.config.tier {
            for &frame in frames.iter() {
                match dma.residency(frame) {
                    Some(Residency::Pinned) | None => continue,
                    Some(res) => {
                        let tcfg = tier.config();
                        if self.config.dynamic_pin || mr.odp {
                            // NIC-side faults fetch through the tier's
                            // parallel channels: a batch of faulting reads
                            // overlaps its transfers.
                            let fetch = if res == Residency::Far {
                                let d = tier.fetch_with(dma, frame, now)?;
                                self.stats.tier_fetches.fetch_add(1, Ordering::Relaxed);
                                trace.span(Track::Nic, Stage::TierFetch, 0, now, d);
                                d
                            } else {
                                SimDuration::ZERO
                            };
                            if self.config.dynamic_pin {
                                // Dynamic pin: the NIC faults to the host,
                                // which pins the (now resident) page; DMA
                                // then proceeds against pinned memory.
                                dma.set_residency(frame, Residency::Pinned)?;
                                tier.note_pin_fault();
                                self.stats.pin_faults.fetch_add(1, Ordering::Relaxed);
                                pin_faults += 1;
                                trace.span(Track::Nic, Stage::DynamicPin, 0, now, tcfg.dynamic_pin);
                                tier_delay += fetch + tcfg.dynamic_pin;
                            } else if res == Residency::Far {
                                // ODP degenerates to its existing lazy
                                // fault: a far page is fetched and serviced
                                // in place, staying unpinned; a page that is
                                // already resident needs no fault at all.
                                odp_misses += 1;
                                self.stats.odp_misses.fetch_add(1, Ordering::Relaxed);
                                tier_delay += fetch;
                            }
                        } else {
                            // Pinned-only hard miss: the host services the
                            // fault synchronously (swap-in + re-pin +
                            // re-registration) while the verb stalls, and
                            // concurrent hard misses serialize on the
                            // host's single fault path.
                            let far = res == Residency::Far;
                            let d = tier.hard_miss_with(dma, frame, now)?;
                            if far {
                                self.stats.tier_fetches.fetch_add(1, Ordering::Relaxed);
                                trace.span(Track::Nic, Stage::TierFetch, 0, now, d);
                            }
                            dma.set_residency(frame, Residency::Pinned)?;
                            self.stats.hard_misses.fetch_add(1, Ordering::Relaxed);
                            tier_delay += d;
                        }
                    }
                }
            }
        }
        // Perform the DMA against the translated frames.
        let mut done = 0usize;
        let mut addr = va;
        let mut frame_idx = 0usize;
        while done < len {
            let off = (addr % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(len - done);
            let frame = frames[frame_idx];
            match &mut dir {
                AccessDir::Read(buf) => {
                    dma.read(frame, off, &mut buf[done..done + n])?;
                }
                AccessDir::Write(data) => {
                    dma.write(frame, off, &data[done..done + n])?;
                }
            }
            done += n;
            addr += n as u64;
            frame_idx += 1;
        }
        trace.add(Stage::MttLookup, last_vpn - first_vpn + 1);
        if !all_hit {
            trace.event(Track::Nic, Stage::MttMiss, 0, now);
        }
        if odp_misses > 0 {
            trace.add(Stage::OdpMiss, odp_misses as u64);
        }
        let model = &self.config.model;
        let mut latency = model.rdma_read_latency(len, all_hit);
        if odp_misses > 0 {
            latency += model.odp_miss.unwrap_or(SimDuration::ZERO) * odp_misses as u64;
        }
        latency += injected_delay + tier_delay;
        Ok((VerbOutcome { latency, cache_hit: all_hit, odp_misses, pin_faults }, len))
    }

    /// The far tier attached to this NIC, if the host runs a pin budget.
    pub fn tier(&self) -> Option<&Arc<FarTier>> {
        self.config.tier.as_ref()
    }

    /// Cache hit/miss counters of the translation cache, summed over all
    /// MTT shards.
    pub fn cache_stats(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for shard in self.shards.iter() {
            let s = shard.lock();
            hits += s.cache.hits();
            misses += s.cache.misses();
        }
        (hits, misses)
    }

    /// Number of MTT shards.
    pub fn mtt_shards(&self) -> usize {
        self.shards.len()
    }

    /// The MTT's current translation for a page, if any (test/diagnostic
    /// hook: lets tests assert MTT-vs-page-table divergence).
    pub fn mtt_lookup(&self, va: u64) -> Option<FrameId> {
        let vpn = va / PAGE_SIZE as u64;
        self.shard_of(vpn).lock().mtt.get(&vpn).map(|e| e.frame)
    }

    /// Looks up a region by rkey.
    pub fn region(&self, rkey: u32) -> Option<MemoryRegion> {
        self.regions.read().regions.get(&rkey).copied()
    }
}

enum AccessDir<'a> {
    Read(&'a mut [u8]),
    Write(&'a [u8]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_sim_mem::PhysicalMemory;

    fn setup(pages: usize) -> (Arc<AddressSpace>, Arc<Rnic>, u64, Vec<FrameId>) {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(pages).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
        (aspace, rnic, va, frames)
    }

    #[test]
    fn register_and_read_round_trip() {
        let (aspace, rnic, va, _) = setup(2);
        let (mr, _cost) = rnic.register(va, 2, false).unwrap();
        aspace.write(va + 100, b"remote").unwrap();
        let mut buf = [0u8; 6];
        let out = rnic.read(mr.rkey, va + 100, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"remote");
        assert!(out.latency > SimDuration::ZERO);
        assert_eq!(rnic.stats.reads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn read_crossing_page_boundary() {
        let (aspace, rnic, va, _) = setup(2);
        let (mr, _) = rnic.register(va, 2, false).unwrap();
        let addr = va + PAGE_SIZE as u64 - 3;
        aspace.write(addr, b"abcdef").unwrap();
        let mut buf = [0u8; 6];
        rnic.read(mr.rkey, addr, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn invalid_key_and_out_of_range() {
        let (_aspace, rnic, va, _) = setup(1);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            rnic.read(0xdead, va, &mut buf, SimTime::ZERO),
            Err(RdmaError::InvalidKey(0xdead))
        );
        let mut big = vec![0u8; PAGE_SIZE + 1];
        assert!(matches!(
            rnic.read(mr.rkey, va, &mut big, SimTime::ZERO),
            Err(RdmaError::OutOfRange { .. })
        ));
    }

    #[test]
    fn stale_mtt_after_remap_reads_old_frame() {
        // THE hazard: remap without MTT update → RDMA read returns the old
        // frame's (stale) bytes even though the CPU sees the new ones.
        let pm = Arc::new(PhysicalMemory::new());
        let f_old = pm.alloc().unwrap();
        let f_new = pm.alloc().unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&[f_old]).unwrap();
        let rnic = Rnic::new(aspace.clone(), RnicConfig::default());
        let (mr, _) = rnic.register(va, 1, false).unwrap();

        aspace.write(va, b"old!").unwrap();
        aspace.remap(va, &[f_new]).unwrap();
        aspace.write(va, b"new!").unwrap(); // CPU writes through new mapping

        let mut buf = [0u8; 4];
        rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"old!", "non-ODP NIC must read the stale frame");
        // CPU sees the new data.
        let mut cpu = [0u8; 4];
        aspace.read(va, &mut cpu).unwrap();
        assert_eq!(&cpu, b"new!");
    }

    #[test]
    fn rereg_fixes_stale_mtt_but_busy_window_rejects() {
        let pm = Arc::new(PhysicalMemory::new());
        let f_old = pm.alloc().unwrap();
        let f_new = pm.alloc().unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&[f_old]).unwrap();
        let rnic = Rnic::new(aspace.clone(), RnicConfig::default());
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        aspace.remap(va, &[f_new]).unwrap();
        aspace.write(va, b"new!").unwrap();

        let t0 = SimTime::from_micros(100);
        let cost = rnic.rereg(mr.rkey, t0).unwrap();
        // Access inside the window breaks (RegionBusy).
        let mut buf = [0u8; 4];
        assert_eq!(rnic.read(mr.rkey, va, &mut buf, t0), Err(RdmaError::RegionBusy(mr.rkey)));
        // After the window, reads see the new frame with the same rkey.
        let after = t0 + cost;
        rnic.read(mr.rkey, va, &mut buf, after).unwrap();
        assert_eq!(&buf, b"new!");
    }

    #[test]
    fn odp_detects_remap_with_miss_cost_then_fast() {
        let pm = Arc::new(PhysicalMemory::new());
        let f_old = pm.alloc().unwrap();
        let f_new = pm.alloc().unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&[f_old]).unwrap();
        let rnic = Rnic::new(aspace.clone(), RnicConfig::default());
        let (mr, _) = rnic.register(va, 1, true).unwrap();
        aspace.remap(va, &[f_new]).unwrap();
        aspace.write(va, b"new!").unwrap();

        let mut buf = [0u8; 4];
        let first = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"new!", "ODP must see the fresh mapping");
        assert_eq!(first.odp_misses, 1);
        assert!(first.latency.as_micros_f64() > 60.0, "{}", first.latency);

        let second = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(second.odp_misses, 0);
        assert!(second.latency.as_micros_f64() < 4.0, "{}", second.latency);
    }

    #[test]
    fn odp_prefetch_avoids_miss() {
        let pm = Arc::new(PhysicalMemory::new());
        let f_old = pm.alloc().unwrap();
        let f_new = pm.alloc().unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&[f_old]).unwrap();
        let rnic = Rnic::new(aspace.clone(), RnicConfig::default());
        let (mr, _) = rnic.register(va, 1, true).unwrap();
        aspace.remap(va, &[f_new]).unwrap();
        aspace.write(va, b"new!").unwrap();

        let advise_cost = rnic.advise(mr.rkey, va, 1).unwrap();
        assert!((4.4..=4.7).contains(&advise_cost.as_micros_f64()));
        let mut buf = [0u8; 4];
        let out = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"new!");
        assert_eq!(out.odp_misses, 0, "prefetch must absorb the miss");
    }

    #[test]
    fn odp_requires_device_support() {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Rnic::new(
            aspace,
            RnicConfig { model: LatencyModel::connectx3(), ..RnicConfig::default() },
        );
        assert_eq!(rnic.register(va, 1, true).unwrap_err(), RdmaError::OdpUnsupported);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        assert_eq!(rnic.advise(mr.rkey, va, 1).unwrap_err(), RdmaError::OdpUnsupported);
    }

    #[test]
    fn dynamic_pin_fetches_pins_and_charges() {
        use corm_sim_mem::{Residency, TierConfig};
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm.clone()));
        let va = aspace.mmap(&frames).unwrap();
        let tier = Arc::new(FarTier::new(TierConfig::nvme()));
        let rnic = Rnic::new(
            aspace.clone(),
            RnicConfig { tier: Some(tier.clone()), dynamic_pin: true, ..RnicConfig::default() },
        );
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        aspace.write(va, b"tiered").unwrap();
        let mut buf = [0u8; 6];
        rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        let warm = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(warm.pin_faults, 0);

        tier.spill(&pm, frames[0], SimTime::ZERO).unwrap();
        let faulted = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(&buf, b"tiered", "fetch must restore the page byte-exactly");
        assert_eq!(faulted.pin_faults, 1);
        assert_eq!(
            faulted.latency,
            warm.latency + tier.config().fetch_cost() + tier.config().dynamic_pin
        );
        assert_eq!(pm.residency(frames[0]), Residency::Pinned);

        // Once pinned, the fault path is off again.
        let again = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!((again.pin_faults, again.latency), (0, warm.latency));
        assert_eq!(rnic.stats.pin_faults.load(Ordering::Relaxed), 1);
        assert_eq!(rnic.stats.tier_fetches.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn hard_miss_and_odp_degenerate_paths() {
        use corm_sim_mem::{Residency, TierConfig};
        // Pinned-only NIC (no dynamic pin, non-ODP region): a far page is a
        // hard miss — fetch plus the synchronous host fault charge — and
        // the host re-pins the page.
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm.clone()));
        let va = aspace.mmap(&frames).unwrap();
        let tier = Arc::new(FarTier::new(TierConfig::cxl()));
        let rnic = Rnic::new(
            aspace.clone(),
            RnicConfig { tier: Some(tier.clone()), ..RnicConfig::default() },
        );
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mut buf = [0u8; 8];
        rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        let warm = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        tier.spill(&pm, frames[0], SimTime::ZERO).unwrap();
        let hard = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(
            hard.latency,
            warm.latency + tier.config().fetch_cost() + tier.config().hard_miss_extra
        );
        assert_eq!(hard.pin_faults, 0);
        assert_eq!(pm.residency(frames[0]), Residency::Pinned);
        assert_eq!(rnic.stats.hard_misses.load(Ordering::Relaxed), 1);

        // ODP region: the far page degenerates to the existing lazy fault
        // (odp_miss charge) and stays unpinned afterwards.
        let pm2 = Arc::new(PhysicalMemory::new());
        let frames2 = pm2.alloc_n(1).unwrap();
        let aspace2 = Arc::new(AddressSpace::new(pm2.clone()));
        let va2 = aspace2.mmap(&frames2).unwrap();
        let tier2 = Arc::new(FarTier::new(TierConfig::cxl()));
        let rnic2 =
            Rnic::new(aspace2, RnicConfig { tier: Some(tier2.clone()), ..RnicConfig::default() });
        let (mr2, _) = rnic2.register(va2, 1, true).unwrap();
        rnic2.read(mr2.rkey, va2, &mut buf, SimTime::ZERO).unwrap();
        let warm2 = rnic2.read(mr2.rkey, va2, &mut buf, SimTime::ZERO).unwrap();
        tier2.spill(&pm2, frames2[0], SimTime::ZERO).unwrap();
        let lazy = rnic2.read(mr2.rkey, va2, &mut buf, SimTime::ZERO).unwrap();
        let odp_miss = rnic2.config.model.odp_miss.unwrap();
        assert_eq!(lazy.odp_misses, 1);
        assert_eq!(lazy.latency, warm2.latency + tier2.config().fetch_cost() + odp_miss);
        assert_eq!(pm2.residency(frames2[0]), Residency::Resident);
        // Resident-but-unpinned is free under ODP.
        let settled = rnic2.read(mr2.rkey, va2, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(settled.latency, warm2.latency);
        assert_eq!(pm2.residency(frames2[0]), Residency::Resident);
    }

    #[test]
    fn write_verb_updates_memory() {
        let (aspace, rnic, va, _) = setup(1);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        rnic.write(mr.rkey, va + 8, b"payload", SimTime::ZERO).unwrap();
        let mut cpu = [0u8; 7];
        aspace.read(va + 8, &mut cpu).unwrap();
        assert_eq!(&cpu, b"payload");
    }

    #[test]
    fn cache_miss_then_hit_latency() {
        let (_aspace, rnic, va, _) = setup(1);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mut buf = [0u8; 8];
        let cold = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        let warm = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert!(cold.latency > warm.latency);
    }

    #[test]
    fn deregister_invalidates_key() {
        let (_aspace, rnic, va, _) = setup(1);
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        rnic.deregister(mr.rkey).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO),
            Err(RdmaError::InvalidKey(mr.rkey))
        );
    }

    fn faulty_setup(cfg: FaultConfig) -> (Arc<AddressSpace>, Rnic, u64) {
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic =
            Rnic::new(aspace.clone(), RnicConfig { faults: Some(cfg), ..RnicConfig::default() });
        (aspace, rnic, va)
    }

    #[test]
    fn scripted_faults_fail_delay_and_miss_verbs() {
        use crate::fault::{FaultKind, ScheduledFault};
        let (_aspace, rnic, va) = faulty_setup(FaultConfig::scripted(vec![
            ScheduledFault { at_op: 0, kind: FaultKind::QpBreak },
            ScheduledFault { at_op: 1, kind: FaultKind::Transient },
            ScheduledFault { at_op: 4, kind: FaultKind::DelaySpike },
            ScheduledFault { at_op: 6, kind: FaultKind::CacheMiss },
        ]));
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mut buf = [0u8; 8];
        // op 0: QP break; op 1: transient fault.
        assert_eq!(rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO), Err(RdmaError::QpBroken));
        assert_eq!(rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO), Err(RdmaError::InjectedFault));
        // op 2 warms the cache, op 3 is the warm baseline, op 4 is delayed.
        rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        let clean = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        let spiked = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        let spike = rnic.fault_injector().unwrap().delay_spike();
        assert_eq!(spiked.latency, clean.latency + spike);
        // op 5 warm again; op 6 is forced down the miss path.
        let warm = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert!(warm.cache_hit);
        let missed = rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert!(!missed.cache_hit, "forced miss must evict the translation");
        assert!(missed.latency > warm.latency);

        assert_eq!(rnic.stats.injected_qp_breaks.load(Ordering::Relaxed), 1);
        assert_eq!(rnic.stats.injected_faults.load(Ordering::Relaxed), 1);
        assert_eq!(rnic.stats.injected_delays.load(Ordering::Relaxed), 1);
        assert_eq!(rnic.stats.forced_cache_misses.load(Ordering::Relaxed), 1);
        assert_eq!(rnic.stats.injected_delay_ns.load(Ordering::Relaxed), spike.as_nanos());
        assert_eq!(rnic.fault_log().len(), 4);
    }

    #[test]
    fn failed_verbs_do_not_count_as_served() {
        use crate::fault::{FaultKind, ScheduledFault};
        let (_aspace, rnic, va) = faulty_setup(FaultConfig::scripted(vec![ScheduledFault {
            at_op: 0,
            kind: FaultKind::Transient,
        }]));
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        let mut buf = [0u8; 8];
        assert!(rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).is_err());
        rnic.read(mr.rkey, va, &mut buf, SimTime::ZERO).unwrap();
        assert_eq!(rnic.stats.reads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn multi_unit_engine_shortens_batch_makespan() {
        // The same 8-WQE batch on a 2-unit NIC must finish strictly sooner
        // than on a 1-unit NIC: round-robin dispatch halves the per-unit
        // queueing.
        let makespan = |units: usize| {
            let pm = Arc::new(PhysicalMemory::new());
            let frames = pm.alloc_n(1).unwrap();
            let aspace = Arc::new(AddressSpace::new(pm));
            let va = aspace.mmap(&frames).unwrap();
            let rnic = Arc::new(Rnic::new(
                aspace,
                RnicConfig { processing_units: units, ..RnicConfig::default() },
            ));
            let (mr, _) = rnic.register(va, 1, false).unwrap();
            let qp = crate::QueuePair::connect(rnic.clone());
            let reqs: Vec<ReadReq> = (0..8u64).map(|i| ReadReq::new(i, mr.rkey, va, 64)).collect();
            let (mut outs, mut results) = (vec![Vec::new(); 8], Vec::new());
            qp.read_batch_into(&reqs, &mut outs, SimTime::ZERO, &mut results);
            assert_eq!(rnic.processing_units(), units);
            assert_eq!(rnic.engine_admitted(), 8);
            results.iter().map(|r| r.completed_at).max().unwrap()
        };
        let one = makespan(1);
        let two = makespan(2);
        assert!(two < one, "2 units {two} must beat 1 unit {one}");
    }

    #[test]
    fn only_a_weighted_qos_config_builds_a_scheduler() {
        let with_qos = |qos: Option<QosConfig>| {
            let (aspace, ..) = setup(1);
            Rnic::new(aspace, RnicConfig { qos, ..RnicConfig::default() }).qos_enabled()
        };
        assert!(!with_qos(None));
        assert!(!with_qos(Some(QosConfig::equal_weights())), "uniform is the plain dispatch");
        assert!(with_qos(Some(QosConfig::default())));
    }

    #[test]
    fn shard_count_does_not_change_virtual_time() {
        // MTT sharding is a lock-granularity change only: with the same
        // verb sequence the latencies, cache outcomes, and completion
        // times are identical for any shard count (as long as the cache
        // split takes no extra evictions).
        let run = |shards: usize| {
            let pm = Arc::new(PhysicalMemory::new());
            let frames = pm.alloc_n(4).unwrap();
            let aspace = Arc::new(AddressSpace::new(pm));
            let va = aspace.mmap(&frames).unwrap();
            let rnic =
                Rnic::new(aspace, RnicConfig { mtt_shards: shards, ..RnicConfig::default() });
            let (mr, _) = rnic.register(va, 4, false).unwrap();
            let mut out = Vec::new();
            let mut buf = [0u8; 64];
            for i in 0..16u64 {
                let addr = va + (i % 4) * PAGE_SIZE as u64;
                let v = rnic.read(mr.rkey, addr, &mut buf, SimTime::ZERO).unwrap();
                out.push((v.latency, v.cache_hit));
            }
            assert_eq!(rnic.mtt_shards(), shards);
            (out, rnic.cache_stats())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn concurrent_reads_across_shards_stay_correct() {
        use std::thread;
        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(8).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(
            aspace.clone(),
            RnicConfig { mtt_shards: 8, ..RnicConfig::default() },
        ));
        let (mr, _) = rnic.register(va, 8, false).unwrap();
        for p in 0..8u64 {
            aspace.write(va + p * PAGE_SIZE as u64, &[p as u8; 32]).unwrap();
        }
        let mut threads = Vec::new();
        for t in 0..4u64 {
            let rnic = rnic.clone();
            threads.push(thread::spawn(move || {
                let mut buf = [0u8; 32];
                for i in 0..200u64 {
                    let page = (t * 2 + i) % 8;
                    rnic.read(mr.rkey, va + page * PAGE_SIZE as u64, &mut buf, SimTime::ZERO)
                        .unwrap();
                    assert_eq!(buf, [page as u8; 32]);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(rnic.stats.reads.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn mtt_lookup_reflects_registration() {
        let (_aspace, rnic, va, frames) = setup(1);
        assert_eq!(rnic.mtt_lookup(va), None);
        let (_mr, _) = rnic.register(va, 1, false).unwrap();
        assert_eq!(rnic.mtt_lookup(va), Some(frames[0]));
    }
}
