//! The CoRM server node.
//!
//! A [`CormServer`] owns the whole §3 machinery: the two-level allocator
//! with per-worker thread allocators, the simulated RNIC the blocks are
//! registered with, the block registry (including post-compaction aliases),
//! the home-vaddr tracker for virtual-address reuse, and the RPC handlers
//! with transparent pointer correction. Compaction lives in
//! [`compaction`]; the threaded execution mode in [`threaded`].
//!
//! Every handler returns a [`Timed`] result carrying the *server-side*
//! virtual-time cost; clients add wire latency, and the event-driven
//! harness uses the same costs as queueing service times.

pub mod compaction;
pub mod plan;
pub mod registry;
pub mod threaded;
pub mod tiering;
pub mod vaddrs;

pub use compaction::CompactionReport;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::Rng;

use corm_alloc::process::SharedBlock;
use corm_alloc::{
    AllocConfig, AllocError, FragmentationReport, ProcessAllocator, SizeClasses, ThreadAllocator,
};
use corm_sim_core::rng::{stream_rng, DetRng};
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_mem::{
    AddressSpace, FarTier, MemError, PageSpan, PhysicalMemory, Residency, TierConfig,
};
use corm_sim_rdma::{LatencyModel, MttUpdateStrategy, QosConfig, RdmaError, Rnic, RnicConfig};
use corm_trace::{Stage, TraceHandle, Track};

use crate::consistency::{self, ReadFailure};
use crate::header::{home_base, home_index, LockState, ObjectHeader, HEADER_BYTES};
use crate::ptr::GlobalPtr;
use crate::Timed;

use registry::BlockRegistry;
use tiering::TierDirector;
use vaddrs::VaddrTracker;

/// How many times an RPC handler re-attempts an object that is transiently
/// locked, torn, or mid-migration before giving up with
/// [`CormError::ObjectLocked`]. The lock window is bounded by one block
/// merge (microseconds of real time), so with a yield per late attempt this
/// budget is only exhausted if a lock leaks.
const RPC_BACKOFF_ATTEMPTS: usize = 100_000;

/// How a worker locates an object accessed through an indirect pointer
/// (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionStrategy {
    /// Forward the request to the thread owning the block, which answers
    /// from its ID→offset metadata table.
    ThreadMessaging,
    /// Scan the block's headers directly on the serving worker.
    BlockScan,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker threads (the paper's default is 8).
    pub workers: usize,
    /// Allocator configuration (block size, size classes, ID width).
    pub alloc: AllocConfig,
    /// Pointer-correction strategy for RPC accesses.
    pub correction: CorrectionStrategy,
    /// MTT-update strategy after compaction remaps (§3.5).
    pub mtt_strategy: MttUpdateStrategy,
    /// Per-class fragmentation ratio beyond which compaction triggers
    /// (§3.1.3).
    pub frag_threshold: f64,
    /// Maximum occupancy for a block to be collected for compaction.
    pub collect_max_occupancy: f64,
    /// Whether emptied blocks are immediately returned to the process-wide
    /// allocator.
    pub release_empty_blocks: bool,
    /// RNIC configuration (device model, translation-cache size).
    pub rnic: RnicConfig,
    /// Shards in the block registry; 1 reproduces the single-lock
    /// registry for determinism-sensitive runs.
    pub registry_shards: usize,
    /// Parallel merge lanes in a compaction pass. Disjoint merge
    /// components overlap in virtual time across lanes (the merge phase
    /// costs the per-lane makespan); 1 reproduces the historical serial
    /// schedule byte for byte.
    pub compaction_lanes: usize,
    /// Pause budget (virtual time) for pause-bounded compaction passes:
    /// after this much merge-phase time the pass yields so queued RPCs can
    /// interleave, then resumes. `None` runs each pass to completion.
    pub compaction_budget: Option<SimDuration>,
    /// Issue one batched MTT-sync verb per merge covering the primary
    /// vaddr and its whole alias chain, instead of one verb per remap
    /// target. The batch rides the primary target's transition, so alias
    /// targets stop paying the per-target `mmap + mtt_update` cost.
    pub batch_mtt_sync: bool,
    /// QoS scheduling for the node: SLO-class/tenant weights applied to
    /// the RNIC's batched-verb dispatch *and* to the threaded server's
    /// per-worker RPC queues (deficit-weighted class selection). `None` —
    /// the default — keeps both on their legacy schedules: seeded replays
    /// are byte-identical to builds predating QoS. Propagated into the
    /// RNIC's config unless that config carries its own `qos`.
    pub qos: Option<QosConfig>,
    /// Execution lanes for windowed lane-parallel simulation. At `1` (the
    /// default) the node runs the exact classic code path. Above `1`: the
    /// RNIC is partitioned into this many lanes (per-lane fault streams,
    /// lane-pinned engine dispatch — see
    /// [`RnicConfig::lanes`](corm_sim_rdma::RnicConfig)), and the threaded
    /// server's workers batch their shared-clock advances into
    /// lookahead-bounded windows committed per lane instead of per op.
    /// Propagated into the RNIC's config unless that config already asks
    /// for multiple lanes itself.
    pub sim_lanes: usize,
    /// Pin budget: maximum DRAM-resident frames before the server starts
    /// spilling cold blocks to the far tier. `None` (the default) disables
    /// tiering entirely — residency is never consulted, no far tier is
    /// attached to the RNIC, and seeded replays are byte-identical to
    /// pre-tiering builds. Enforcement is explicit: callers invoke
    /// [`CormServer::enforce_pin_budget`] from the same maintenance context
    /// that drives compaction.
    pub pin_budget_frames: Option<usize>,
    /// Far-tier cost model used when a pin budget is set; defaults to
    /// [`TierConfig::cxl`]. Ignored when `pin_budget_frames` is `None` or
    /// when the RNIC config already carries its own tier.
    pub tier: Option<TierConfig>,
    /// Root seed for object-ID generation.
    pub seed: u64,
    /// Trace recorder for the node. Disabled by default; recording is
    /// purely observational (zero virtual-time cost, zero RNG draws), so
    /// enabling it cannot perturb seeded replays. Propagated into the
    /// RNIC's config unless that config carries its own handle.
    pub trace: TraceHandle,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            alloc: AllocConfig::default(),
            correction: CorrectionStrategy::ThreadMessaging,
            mtt_strategy: MttUpdateStrategy::OdpPrefetch,
            frag_threshold: 1.5,
            collect_max_occupancy: 0.9,
            release_empty_blocks: true,
            rnic: RnicConfig::default(),
            registry_shards: registry::DEFAULT_REGISTRY_SHARDS,
            compaction_lanes: 1,
            compaction_budget: None,
            batch_mtt_sync: false,
            qos: None,
            sim_lanes: 1,
            pin_budget_frames: None,
            tier: None,
            seed: 0xC0_4D,
            trace: TraceHandle::disabled(),
        }
    }
}

/// Errors surfaced by server operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CormError {
    /// Allocation failed.
    Alloc(AllocError),
    /// RDMA verb failed.
    Rdma(RdmaError),
    /// Simulated memory failed.
    Mem(MemError),
    /// The pointer's block is unknown (likely a released vaddr).
    UnknownBlock(u64),
    /// The pointer's offset is not slot-aligned for the block's class.
    BadPointer,
    /// The object was not found (freed, or the pointer is stale).
    ObjectNotFound,
    /// The object is transiently locked or being written; retry after a
    /// backoff.
    ObjectLocked,
    /// The payload exceeds every size class.
    PayloadTooLarge(usize),
    /// The target cluster node is marked failed (replication layer).
    NodeDown,
}

impl std::fmt::Display for CormError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CormError::Alloc(e) => write!(f, "alloc: {e}"),
            CormError::Rdma(e) => write!(f, "rdma: {e}"),
            CormError::Mem(e) => write!(f, "mem: {e}"),
            CormError::UnknownBlock(b) => write!(f, "unknown block {b:#x}"),
            CormError::BadPointer => write!(f, "malformed pointer"),
            CormError::ObjectNotFound => write!(f, "object not found"),
            CormError::ObjectLocked => write!(f, "object transiently locked; retry"),
            CormError::PayloadTooLarge(n) => write!(f, "payload too large: {n}"),
            CormError::NodeDown => write!(f, "cluster node is down"),
        }
    }
}

impl std::error::Error for CormError {}

impl From<AllocError> for CormError {
    fn from(e: AllocError) -> Self {
        CormError::Alloc(e)
    }
}
impl From<RdmaError> for CormError {
    fn from(e: RdmaError) -> Self {
        CormError::Rdma(e)
    }
}
impl From<MemError> for CormError {
    fn from(e: MemError) -> Self {
        CormError::Mem(e)
    }
}

/// Lifetime counters, readable at any point.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Successful Alloc calls.
    pub allocs: AtomicU64,
    /// Successful Free calls.
    pub frees: AtomicU64,
    /// RPC reads served.
    pub reads: AtomicU64,
    /// RPC writes served.
    pub writes: AtomicU64,
    /// ReleasePtr calls served.
    pub releases: AtomicU64,
    /// Pointer corrections performed (indirect accesses).
    pub corrections: AtomicU64,
    /// Thread-local allocator refills.
    pub refills: AtomicU64,
    /// Compaction passes run.
    pub compactions: AtomicU64,
    /// Blocks freed by compaction.
    pub compaction_blocks_freed: AtomicU64,
    /// Objects relocated to *new offsets* by compaction — the subset of
    /// [`Self::objects_copied`] whose pointers became indirect. Matches
    /// `CompactionReport::objects_relocated` summed over passes.
    pub objects_moved: AtomicU64,
    /// Total objects copied between blocks by compaction, offset-preserving
    /// copies included. Matches `CompactionReport::objects_copied` summed
    /// over passes; always ≥ [`Self::objects_moved`].
    pub objects_copied: AtomicU64,
    /// Virtual addresses released for reuse.
    pub vaddrs_released: AtomicU64,
    /// RPC operations that found an object transiently locked, torn, or
    /// mid-migration and backed off for a retry (§3.2.3).
    pub rpc_lock_retries: AtomicU64,
}

pub(crate) struct WorkerState {
    pub alloc: ThreadAllocator,
    pub rng: DetRng,
}

/// A CoRM node: allocator, RNIC, registry, and RPC handlers.
pub struct CormServer {
    config: ServerConfig,
    phys: Arc<PhysicalMemory>,
    aspace: Arc<AddressSpace>,
    rnic: Arc<Rnic>,
    proc: ProcessAllocator,
    pub(crate) workers: Vec<Mutex<WorkerState>>,
    pub(crate) registry: BlockRegistry,
    pub(crate) vaddrs: Mutex<VaddrTracker>,
    /// Pin-budget manager, present iff `ServerConfig::pin_budget_frames`.
    pub(crate) tiering: Option<TierDirector>,
    /// Lifetime counters.
    pub stats: ServerStats,
}

impl std::fmt::Debug for CormServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CormServer")
            .field("workers", &self.config.workers)
            .field("blocks", &self.registry.len())
            .finish()
    }
}

impl CormServer {
    /// Boots a server over fresh simulated memory.
    pub fn new(config: ServerConfig) -> Self {
        Self::with_memory(Arc::new(PhysicalMemory::new()), config)
    }

    /// Boots a server over the given physical memory (e.g. capacity-capped
    /// to exercise the allocation-failure compaction trigger).
    pub fn with_memory(phys: Arc<PhysicalMemory>, config: ServerConfig) -> Self {
        assert!(config.workers > 0, "server needs at least one worker");
        assert!(config.alloc.id_bits <= 16, "the data-plane header stores 16-bit object IDs");
        let aspace = Arc::new(AddressSpace::new(phys.clone()));
        // One recorder per node: the server's handle flows into the RNIC
        // so NIC-side spans land in the same sink, unless the RNIC config
        // was given its own recorder explicitly.
        let mut rnic_config = config.rnic.clone();
        if !rnic_config.trace.is_enabled() {
            rnic_config.trace = config.trace.clone();
        }
        if rnic_config.qos.is_none() {
            rnic_config.qos = config.qos.clone();
        }
        if rnic_config.lanes <= 1 {
            rnic_config.lanes = config.sim_lanes.max(1);
        }
        // A pin budget brings a far tier with it. The director and the RNIC
        // share one tier instance so NIC-side fetches and server-side
        // spills contend for the same virtual-time channels.
        let tiering = config.pin_budget_frames.map(|budget| {
            let tier = rnic_config.tier.clone().unwrap_or_else(|| {
                Arc::new(FarTier::new(config.tier.clone().unwrap_or_else(TierConfig::cxl)))
            });
            TierDirector::new(tier, budget)
        });
        if let Some(t) = &tiering {
            if rnic_config.tier.is_none() {
                rnic_config.tier = Some(t.tier().clone());
            }
        }
        let rnic = Arc::new(Rnic::new(aspace.clone(), rnic_config));
        if config.mtt_strategy.needs_odp() {
            assert!(rnic.model().odp_miss.is_some(), "ODP strategy requires an ODP-capable device");
        }
        let proc = ProcessAllocator::new(phys.clone(), aspace.clone(), config.alloc.clone());
        let n_classes = config.alloc.classes.len();
        let workers = (0..config.workers)
            .map(|w| {
                Mutex::new(WorkerState {
                    alloc: ThreadAllocator::new(w as u16, n_classes),
                    rng: stream_rng(config.seed, w as u64),
                })
            })
            .collect();
        let registry = BlockRegistry::with_shards(config.registry_shards);
        CormServer {
            config,
            phys,
            aspace,
            rnic,
            proc,
            workers,
            registry,
            vaddrs: Mutex::new(VaddrTracker::new()),
            tiering,
            stats: ServerStats::default(),
        }
    }

    /// The server's RNIC (clients connect QPs to it).
    pub fn rnic(&self) -> &Arc<Rnic> {
        &self.rnic
    }

    /// The node's trace recorder (disabled unless the config enabled it).
    pub fn trace(&self) -> &TraceHandle {
        &self.config.trace
    }

    /// The node's address space.
    pub fn aspace(&self) -> &Arc<AddressSpace> {
        &self.aspace
    }

    /// Number of alias entries currently in the block registry (bases
    /// whose physical block was consumed by compaction).
    pub fn alias_count(&self) -> usize {
        self.registry.alias_count()
    }

    /// The node's physical memory.
    pub fn phys(&self) -> &Arc<PhysicalMemory> {
        &self.phys
    }

    /// The pin-budget manager, when tiering is enabled.
    pub fn tiering(&self) -> Option<&TierDirector> {
        self.tiering.as_ref()
    }

    /// Frames owned by live blocks as `(total, dram_resident)` — the
    /// logical footprint the pin budget is enforced against (benches size
    /// the budget as a fraction of the total). File frames never handed
    /// to a block are excluded on both sides.
    pub fn block_frames(&self) -> (u64, u64) {
        let mut total = 0u64;
        let mut in_dram = 0u64;
        for b in self.registry.live_blocks() {
            let g = b.lock();
            for &f in g.frames() {
                total += 1;
                if self.phys.residency(f) != Residency::Far {
                    in_dram += 1;
                }
            }
        }
        (total, in_dram)
    }

    /// Adjusts the pin budget at runtime (benches size it after populating,
    /// once the logical footprint is known). Returns `false` when tiering
    /// is disabled.
    pub fn set_pin_budget(&self, frames: usize) -> bool {
        match &self.tiering {
            Some(t) => {
                t.set_budget(frames);
                true
            }
            None => false,
        }
    }

    /// Feeds one access into the block-heat counters — the hook for
    /// one-sided traffic, which bypasses the RPC handlers that feed heat
    /// implicitly. Models the host's access-sampling daemon (NP-RDMA's
    /// host agent sees every dynamic-pin fault and samples the rest).
    /// No-op without tiering.
    pub fn note_access(&self, ptr: &GlobalPtr) {
        if let Some(t) = &self.tiering {
            t.touch(ptr.block_base(self.block_bytes()));
        }
    }

    /// Fetches any far frames of `block` back into DRAM so CPU-side access
    /// (header reads, scatter/gather, compaction copies) sees real bytes
    /// instead of spill poison. Returns the virtual-time fetch cost, which
    /// the caller charges into its RPC/merge total. Zero without tiering.
    fn ensure_resident(&self, block: &SharedBlock) -> Result<SimDuration, CormError> {
        let Some(t) = &self.tiering else {
            return Ok(SimDuration::ZERO);
        };
        let b = block.lock();
        let mut cost = SimDuration::ZERO;
        let dma = self.phys.dma();
        for &f in b.frames() {
            if dma.residency(f) == Some(Residency::Far) {
                cost += t.tier().fetch_untimed(&dma, f).map_err(CormError::Mem)?;
            }
        }
        if cost > SimDuration::ZERO {
            self.config.trace.sample(Stage::TierFetch, cost);
        }
        Ok(cost)
    }

    /// Enforces the pin budget: while more than `budget` frames sit in
    /// DRAM, the coldest live block — ranked by `(heat, base)` ascending,
    /// so seeded replays evict in identical order — is spilled whole to
    /// the far tier. Each pass ends with a heat decay (LRU aging).
    ///
    /// Runs from the same maintenance context as compaction (never
    /// concurrently with a pass: eviction poisons DRAM copies, and a
    /// mid-merge source must not lose its bytes). Returns the number of
    /// blocks evicted; the cost is the virtual time until the last spill
    /// transfer completes, counted from `now`.
    pub fn enforce_pin_budget(&self, now: SimTime) -> Result<Timed<usize>, CormError> {
        let Some(t) = &self.tiering else {
            return Ok(Timed::new(0, SimDuration::ZERO));
        };
        let budget = t.budget() as u64;
        let trace = &self.config.trace;
        // Budget accounting covers frames owned by live blocks only — file
        // frames never handed to a block carry no data and would not be
        // faulted in on a real host, so they are not chargeable.
        let mut in_dram = 0u64;
        let mut ranked: Vec<(u64, u64, SharedBlock)> = self
            .registry
            .live_blocks()
            .into_iter()
            .map(|b| {
                let (base, resident) = {
                    let g = b.lock();
                    let resident = g
                        .frames()
                        .iter()
                        .filter(|&&f| self.phys.residency(f) != Residency::Far)
                        .count() as u64;
                    (g.vaddr(), resident)
                };
                in_dram += resident;
                (t.heat_of(base), base, b)
            })
            .collect();
        if in_dram <= budget {
            t.decay();
            return Ok(Timed::new(0, SimDuration::ZERO));
        }
        ranked.sort_by_key(|&(heat, base, _)| (heat, base));
        let mut evicted = 0usize;
        let mut cost = SimDuration::ZERO;
        for (_, base, block) in ranked {
            if in_dram <= budget {
                break;
            }
            let b = block.lock();
            let dma = self.phys.dma();
            let mut block_cost = SimDuration::ZERO;
            let mut spilled = 0u64;
            for &f in b.frames() {
                if dma.residency(f) == Some(Residency::Far) {
                    continue;
                }
                let d = t.tier().spill_with(&dma, f, now).map_err(CormError::Mem)?;
                block_cost = block_cost.max(d);
                spilled += 1;
            }
            drop(dma);
            drop(b);
            if spilled > 0 {
                in_dram -= spilled;
                evicted += 1;
                t.note_eviction(base);
                trace.add(Stage::TierSpill, spilled);
                trace.span(Track::Compaction, Stage::Evict, 0, now, block_cost);
                // Spills queue on shared tier channels; the pass completes
                // when the slowest transfer does.
                cost = cost.max(block_cost);
            }
        }
        t.decay();
        Ok(Timed::new(evicted, cost))
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The latency model in force.
    pub fn model(&self) -> &LatencyModel {
        self.rnic.model()
    }

    /// The size-class table.
    pub fn classes(&self) -> &SizeClasses {
        &self.config.alloc.classes
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.config.alloc.block_bytes
    }

    /// Bytes currently held in blocks (the paper's "active memory").
    pub fn active_bytes(&self) -> u64 {
        self.proc.active_bytes()
    }

    /// Process-wide allocator (diagnostics).
    pub fn process_allocator(&self) -> &ProcessAllocator {
        &self.proc
    }

    /// Per-class fragmentation snapshot (§3.1.3).
    pub fn fragmentation_report(&self) -> FragmentationReport {
        let blocks = self.registry.live_blocks();
        let guards: Vec<_> = blocks.iter().map(|b| b.lock()).collect();
        FragmentationReport::from_blocks(guards.iter().map(|g| &**g), self.config.alloc.block_bytes)
    }

    fn mmap_base(&self) -> u64 {
        AddressSpace::MMAP_BASE
    }

    // ------------------------------------------------------------------
    // RPC handlers
    // ------------------------------------------------------------------

    /// Allocates an object of `payload_len` bytes on behalf of a client,
    /// served by `worker`. Returns the 128-bit pointer.
    pub fn alloc(&self, worker: usize, payload_len: usize) -> Result<Timed<GlobalPtr>, CormError> {
        // Classes ascend in size, so if the smallest class that fits the
        // payload does not fit in a block, no class does.
        let class = consistency::class_for_payload(self.classes(), payload_len)
            .filter(|&c| self.classes().size_of(c) <= self.block_bytes())
            .ok_or(CormError::PayloadTooLarge(payload_len))?;
        let model = self.model().clone();
        let mut cost = model.alloc_free_extra;

        let mut w = self.workers[worker].lock();
        let WorkerState { alloc, rng } = &mut *w;
        let out = alloc.alloc(class, &self.proc, rng)?;
        drop(w);

        if out.refilled {
            // Fresh block: register with the RNIC and publish it.
            let (base, pages) = {
                let b = out.block.lock();
                (b.vaddr(), b.pages())
            };
            let odp = self.config.mtt_strategy.needs_odp();
            let (mr, _reg_cost) = self.rnic.register(base, pages, odp)?;
            out.block.lock().set_keys(mr.lkey, mr.rkey);
            self.registry.insert_block(base, out.block.clone());
            // §4.1: the +5 µs refill penalty covers both fetching the block
            // and registering its memory on the RNIC.
            cost += model.block_refill_extra;
            self.stats.refills.fetch_add(1, Ordering::Relaxed);
        }

        let (base, rkey, slot_vaddr, slot_bytes) = {
            let b = out.block.lock();
            (
                b.vaddr(),
                b.rkey().expect("registered above or earlier"),
                b.slot_vaddr(out.slot),
                b.obj_size(),
            )
        };
        // A recycled slot may sit in a spilled block; the header stamp
        // below must land on real bytes, and the fresh allocation makes
        // the block hot by definition.
        cost += self.ensure_resident(&out.block)?;
        if let Some(t) = &self.tiering {
            t.touch(base);
        }
        // Stamp the slot: header + version bytes over the whole slot so
        // lock-free readers of a never-written object still validate.
        let home = home_index(base, self.mmap_base(), self.block_bytes());
        let header = ObjectHeader::new(out.id as u16, 1, home);
        let image = consistency::scatter(header, &[], slot_bytes);
        self.aspace.write(slot_vaddr, &image)?;
        self.vaddrs.lock().inc(base);
        self.stats.allocs.fetch_add(1, Ordering::Relaxed);

        Ok(Timed::new(
            GlobalPtr {
                vaddr: slot_vaddr,
                rkey,
                obj_id: out.id as u16,
                class: class.0 as u8,
                flags: 0,
            },
            cost,
        ))
    }

    /// Locates the live block and slot a pointer refers to, applying
    /// pointer correction if the object moved. Returns
    /// `(block, slot, correction_cost, corrected)` and updates the pointer
    /// hint in place.
    fn locate(
        &self,
        worker: usize,
        ptr: &mut GlobalPtr,
    ) -> Result<(SharedBlock, u32, SimDuration, bool), CormError> {
        let block_bytes = self.block_bytes();
        let base = ptr.block_base(block_bytes);
        // Registry resolution is host work with no virtual-time charge.
        // Counting it (rather than wall-timing it) keeps this — the hottest
        // server-side call — at one relaxed fetch_add when tracing.
        self.config.trace.count(Stage::RegistryResolve);
        let resolved = self.registry.resolve(base).ok_or(CormError::UnknownBlock(base))?;
        let block = resolved.block;
        let offset = ptr.block_offset(block_bytes);
        let b = block.lock();
        // Heat feeds off the *resolved* block (not the pointer's possibly
        // aliased base), so eviction ranks live blocks by real traffic.
        if let Some(t) = &self.tiering {
            t.touch(b.vaddr());
        }
        let slot = b.slot_of_offset(offset).ok_or(CormError::BadPointer)?;
        if b.id_at_slot(slot) == Some(ptr.obj_id as u32) {
            drop(b);
            return Ok((block, slot, SimDuration::ZERO, false));
        }
        // Indirect pointer: find the object by its ID (§3.2.1).
        let model = self.model();
        let cost = match self.config.correction {
            CorrectionStrategy::ThreadMessaging => {
                if b.owner() as usize != worker {
                    // Round trip to the owning thread, which answers from
                    // its metadata table.
                    model.collection_pair
                } else {
                    SimDuration::ZERO
                }
            }
            CorrectionStrategy::BlockScan => model.scan_cost(b.slots()),
        };
        let found = b.slot_of_id(ptr.obj_id as u32);
        drop(b);
        match found {
            Some(new_slot) => {
                let obj_size = block.lock().obj_size();
                ptr.correct_offset(block_bytes, new_slot as usize * obj_size);
                self.stats.corrections.fetch_add(1, Ordering::Relaxed);
                Ok((block.clone(), new_slot, cost, true))
            }
            None => Err(CormError::ObjectNotFound),
        }
    }

    /// RPC read (Table 2 `Read`): copies up to `buf.len()` object bytes
    /// into `buf`; returns the bytes read. Corrects the pointer in place.
    ///
    /// A read can race a writer or the compaction leader: the slot image is
    /// then write-locked, torn, or mid-migration (header
    /// `CompactionLocked`, or stale until the moved block's vaddr is
    /// remapped onto the destination frames). Per §3.2.3, CPU accesses
    /// back off and retry — the condition clears as soon as the writer
    /// unlocks or the migration's remap lands. Only a genuinely invalid
    /// slot is `ObjectNotFound`; exhausting the backoff budget surfaces as
    /// [`CormError::ObjectLocked`] so callers can distinguish contention
    /// from deletion.
    pub fn read(
        &self,
        worker: usize,
        ptr: &mut GlobalPtr,
        buf: &mut [u8],
    ) -> Result<Timed<usize>, CormError> {
        // Slot images land in a per-worker scratch buffer and payload
        // bytes are gathered straight into `buf`: the hot read path
        // allocates nothing after warm-up.
        thread_local! {
            static SLOT_SCRATCH: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let mut corr_total = SimDuration::ZERO;
        for attempt in 0..RPC_BACKOFF_ATTEMPTS {
            let (block, slot, corr_cost, _) = self.locate(worker, ptr)?;
            corr_total += corr_cost;
            corr_total += self.ensure_resident(&block)?;
            let gathered = SLOT_SCRATCH.with(|scratch| {
                let mut image = scratch.borrow_mut();
                let b = block.lock();
                image.resize(b.obj_size(), 0);
                // Translate through the block's own frame list (kept in
                // sync with the page table under the block lock): one
                // slice index instead of a page-table walk per read.
                let slot_vaddr = b.slot_vaddr(slot);
                let span = PageSpan::from_frames(slot_vaddr, image.len(), b.vaddr(), b.frames())
                    .ok_or(CormError::BadPointer)?;
                span.read(&self.aspace.phys().dma(), slot_vaddr, &mut image)?;
                drop(b);
                Ok::<_, CormError>(consistency::gather_into(&image, Some(ptr.obj_id), buf))
            })?;
            match gathered {
                Ok((_, n)) => {
                    self.stats.reads.fetch_add(1, Ordering::Relaxed);
                    let model = self.model();
                    let cost = model.rpc_worker_service + model.copy_cost(n) + corr_total;
                    return Ok(Timed::new(n, cost));
                }
                Err(ReadFailure::NotValid) => return Err(CormError::ObjectNotFound),
                Err(
                    ReadFailure::Locked | ReadFailure::TornRead | ReadFailure::IdMismatch { .. },
                ) => self.rpc_backoff(attempt),
            }
        }
        Err(CormError::ObjectLocked)
    }

    /// Batched RPC read (multi-get): one request carries many pointers, so
    /// the wire/ingress overhead is paid once by the caller while each
    /// entry still pays the per-object handler work. Outcomes are
    /// per-entry — one relocated-and-freed or contended object does not
    /// poison the rest of the batch, which is what lets the batched
    /// DirectRead client repair only its failed entries. Pointers are
    /// corrected in place; the cost is the summed handler time of the
    /// entries that produced an outcome.
    pub fn read_many(
        &self,
        worker: usize,
        ptrs: &mut [GlobalPtr],
        bufs: &mut [Vec<u8>],
    ) -> Timed<Vec<Result<usize, CormError>>> {
        assert_eq!(ptrs.len(), bufs.len(), "one buffer per pointer");
        let mut cost = SimDuration::ZERO;
        let mut outcomes = Vec::with_capacity(ptrs.len());
        for (ptr, buf) in ptrs.iter_mut().zip(bufs.iter_mut()) {
            match self.read(worker, ptr, buf) {
                Ok(t) => {
                    cost += t.cost;
                    outcomes.push(Ok(t.value));
                }
                Err(e) => outcomes.push(Err(e)),
            }
        }
        Timed::new(outcomes, cost)
    }

    /// Backs off before an RPC handler retries a transiently unreadable
    /// slot. Cheap spin first, then yield so the writer or compaction
    /// leader we are racing gets scheduled.
    fn rpc_backoff(&self, attempt: usize) {
        self.stats.rpc_lock_retries.fetch_add(1, Ordering::Relaxed);
        self.config.trace.count(Stage::LockRetry);
        if attempt >= 16 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }

    /// RPC write (Table 2 `Write`): replaces the object's contents with
    /// `data`. Bumps the version; lock-free readers racing this write see
    /// mismatched cacheline versions and retry.
    ///
    /// If the slot is `CompactionLocked` — the leader is mid-migration and
    /// the copy already happened or is about to — writing through would
    /// both corrupt the migration marker and lose the update once the
    /// remap lands. The worker backs off and retries (§3.2.3); after the
    /// remap, `locate` resolves the object at its new block and the write
    /// applies there.
    pub fn write(
        &self,
        worker: usize,
        ptr: &mut GlobalPtr,
        data: &[u8],
    ) -> Result<Timed<()>, CormError> {
        let mut corr_total = SimDuration::ZERO;
        for attempt in 0..RPC_BACKOFF_ATTEMPTS {
            let (block, slot, corr_cost, _) = self.locate(worker, ptr)?;
            corr_total += corr_cost;
            corr_total += self.ensure_resident(&block)?;
            let b = block.lock();
            let slot_bytes = b.obj_size();
            if data.len() > consistency::layout(slot_bytes).capacity {
                return Err(CormError::PayloadTooLarge(data.len()));
            }
            let slot_vaddr = b.slot_vaddr(slot);
            // Resolve the slot's pages once — straight from the block's
            // frame list, which the held block lock keeps in sync with the
            // page table — and pin a DMA session for the whole operation:
            // the header read and the three ordered writes below then cost
            // zero translations and zero extra lock acquisitions.
            let span = PageSpan::from_frames(slot_vaddr, slot_bytes, b.vaddr(), b.frames())
                .ok_or(CormError::BadPointer)?;
            let dma = self.aspace.phys().dma();
            let mut hdr_bytes = [0u8; HEADER_BYTES];
            span.read(&dma, slot_vaddr, &mut hdr_bytes)?;
            let header = ObjectHeader::from_bytes(hdr_bytes);
            if !header.valid {
                return Err(CormError::ObjectNotFound);
            }
            if header.obj_id != ptr.obj_id || !header.readable() {
                // Mid-migration (locked, or the image lags the block
                // metadata until the remap lands): back off and re-locate.
                drop(dma);
                drop(b);
                self.rpc_backoff(attempt);
                continue;
            }
            // 1) lock, 2) body with new version, 3) unlocked header. The
            // intermediate states are what concurrent DirectReads can
            // observe — the lock must land as its own store *before* the
            // payload image is even assembled, so the locked window spans
            // the whole update the way the paper's protocol intends
            // (tests/races.rs asserts real-thread readers catch it).
            let locked = header.with_lock(LockState::WriteLocked);
            span.write(&dma, slot_vaddr, &locked.to_bytes())?;
            let new_header = header.bump_version();
            // Per-thread scratch: the slot image is rebuilt (zero-filled)
            // on every write, so recycling the buffer is invisible.
            thread_local! {
                static WRITE_IMAGE: std::cell::RefCell<Vec<u8>> =
                    const { std::cell::RefCell::new(Vec::new()) };
            }
            WRITE_IMAGE.with(|cell| {
                let mut image = cell.borrow_mut();
                consistency::scatter_into(new_header, data, slot_bytes, &mut image);
                span.write(&dma, slot_vaddr + HEADER_BYTES as u64, &image[HEADER_BYTES..])
            })?;
            span.write(&dma, slot_vaddr, &new_header.to_bytes())?;
            drop(dma);
            drop(b);
            self.stats.writes.fetch_add(1, Ordering::Relaxed);
            let model = self.model();
            let cost = model.rpc_worker_service + model.copy_cost(data.len()) + corr_total;
            return Ok(Timed::new((), cost));
        }
        Err(CormError::ObjectLocked)
    }

    /// RPC free (Table 2 `Free`): releases the object and updates the
    /// home-vaddr accounting (§3.3).
    pub fn free(&self, worker: usize, ptr: &mut GlobalPtr) -> Result<Timed<()>, CormError> {
        let mut corr_total = SimDuration::ZERO;
        let mut freed = None;
        for attempt in 0..RPC_BACKOFF_ATTEMPTS {
            let (block, slot, corr_cost, _) = self.locate(worker, ptr)?;
            corr_total += corr_cost;
            corr_total += self.ensure_resident(&block)?;
            let mut b = block.lock();
            let slot_vaddr = b.slot_vaddr(slot);
            let mut hdr_bytes = [0u8; HEADER_BYTES];
            self.aspace.read(slot_vaddr, &mut hdr_bytes)?;
            let header = ObjectHeader::from_bytes(hdr_bytes);
            if !header.valid {
                return Err(CormError::ObjectNotFound);
            }
            if header.obj_id != ptr.obj_id || !header.readable() {
                // Mid-migration: freeing the source copy now would leave
                // the migrated copy alive. Back off until the remap lands,
                // then free the object at its new home.
                drop(b);
                self.rpc_backoff(attempt);
                continue;
            }
            self.aspace.write(slot_vaddr, &header.invalidated().to_bytes())?;
            b.free_slot(slot);
            freed = Some((
                block.clone(),
                home_base(header.home_block, self.mmap_base(), self.block_bytes()),
                b.is_empty(),
                b.vaddr(),
            ));
            break;
        }
        let Some((block, home_addr, block_empty, live_base)) = freed else {
            return Err(CormError::ObjectLocked);
        };
        let remaining = self.vaddrs.lock().dec(home_addr);
        if remaining == 0 {
            self.try_release_vaddr(home_addr);
        }
        if block_empty && self.config.release_empty_blocks {
            self.try_release_empty_block(&block, live_base);
        }
        self.stats.frees.fetch_add(1, Ordering::Relaxed);
        let cost = self.model().alloc_free_extra + corr_total;
        Ok(Timed::new((), cost))
    }

    /// RPC ReleasePtr (Table 2): the client has corrected all copies of an
    /// old pointer; re-home the object at its current block so the old
    /// virtual address can be reused (§3.3). Returns the fresh pointer.
    pub fn release_ptr(
        &self,
        worker: usize,
        ptr: &mut GlobalPtr,
    ) -> Result<Timed<GlobalPtr>, CormError> {
        let old_base = ptr.block_base(self.block_bytes());
        let mut corr_total = SimDuration::ZERO;
        let mut rehomed = None;
        for attempt in 0..RPC_BACKOFF_ATTEMPTS {
            let (block, slot, corr_cost, _) = self.locate(worker, ptr)?;
            corr_total += corr_cost;
            corr_total += self.ensure_resident(&block)?;
            let b = block.lock();
            let slot_vaddr = b.slot_vaddr(slot);
            let mut hdr_bytes = [0u8; HEADER_BYTES];
            self.aspace.read(slot_vaddr, &mut hdr_bytes)?;
            let mut header = ObjectHeader::from_bytes(hdr_bytes);
            if !header.valid {
                return Err(CormError::ObjectNotFound);
            }
            if header.obj_id != ptr.obj_id || !header.readable() {
                // Mid-migration: re-homing now would stamp a home index the
                // remap is about to invalidate. Back off and re-locate.
                drop(b);
                self.rpc_backoff(attempt);
                continue;
            }
            let new_base = b.vaddr();
            header.home_block = home_index(new_base, self.mmap_base(), self.block_bytes());
            self.aspace.write(slot_vaddr, &header.to_bytes())?;
            rehomed = Some((
                GlobalPtr {
                    vaddr: slot_vaddr,
                    rkey: b.rkey().expect("live block is registered"),
                    obj_id: ptr.obj_id,
                    class: ptr.class,
                    flags: 0,
                },
                new_base,
            ));
            break;
        }
        let Some((new_ptr, new_base)) = rehomed else {
            return Err(CormError::ObjectLocked);
        };
        if new_base != old_base {
            let mut v = self.vaddrs.lock();
            v.inc(new_base);
            let remaining = v.dec(old_base);
            drop(v);
            if remaining == 0 {
                self.try_release_vaddr(old_base);
            }
        }
        self.stats.releases.fetch_add(1, Ordering::Relaxed);
        let cost = self.model().release_ptr_extra + corr_total;
        Ok(Timed::new(new_ptr, cost))
    }

    // ------------------------------------------------------------------
    // vaddr + block lifecycle
    // ------------------------------------------------------------------

    /// Releases a home vaddr whose live count reached zero, if it is safe:
    /// the base must be an alias (its physical block was compacted away).
    /// Live blocks are handled by [`Self::try_release_empty_block`].
    pub(crate) fn try_release_vaddr(&self, base: u64) {
        let Some(info) = self.registry.alias_info(base) else {
            return;
        };
        if !self.vaddrs.lock().releasable(base) {
            return;
        }
        self.registry.remove(base);
        // The alias region is gone for good: deregister its keys and unmap
        // its pages, making the vaddr reusable (§3.3).
        let _ = self.rnic.deregister(info.rkey);
        self.aspace.munmap(base, info.pages).expect("alias vaddr must be mapped");
        self.vaddrs.lock().note_released();
        self.stats.vaddrs_released.fetch_add(1, Ordering::Relaxed);
    }

    /// Releases an emptied live block: pulls it from its owner's bin,
    /// deregisters it, unmaps its vaddr (no object can be homed there once
    /// it is empty — moved-out objects only exist in alias blocks), and
    /// recycles its physical pages.
    pub(crate) fn try_release_empty_block(&self, block: &SharedBlock, base: u64) {
        // Re-check emptiness under the owner lock to avoid racing an alloc.
        let (owner, class) = {
            let b = block.lock();
            if !b.is_empty() {
                return;
            }
            (b.owner() as usize, b.class())
        };
        let mut w = self.workers[owner].lock();
        {
            let b = block.lock();
            if !b.is_empty() {
                return;
            }
        }
        if !w.alloc.remove_block(class, block) {
            return; // someone else released it first
        }
        drop(w);
        debug_assert!(self.vaddrs.lock().releasable(base), "empty live block with homed objects");
        self.registry.remove(base);
        if let Some(t) = &self.tiering {
            t.forget(base);
        }
        let b = block.lock();
        if let Some((_, rkey)) = b.keys() {
            let _ = self.rnic.deregister(rkey);
        }
        let pages = b.pages();
        let (file, page) = b.phys_identity();
        let frames = b.frames().to_vec();
        drop(b);
        self.aspace.munmap(base, pages).expect("block vaddr mapped");
        self.proc.release_block_phys(file, page, frames);
    }

    /// Picks a worker for a client request (uniformly random, like the
    /// paper's trace replays).
    pub fn pick_worker(&self, rng: &mut impl Rng) -> usize {
        rng.gen_range(0..self.config.workers)
    }
}
