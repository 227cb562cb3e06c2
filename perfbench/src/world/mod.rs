//! The four workloads and what they share: virtual-result recording, the
//! RPC service stations, server population, and the counter snapshots the
//! per-layer metrics are taken from.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;

use corm_core::client::CormClient;
use corm_core::consistency::class_for_payload;
use corm_core::server::CormServer;
use corm_core::GlobalPtr;
use corm_sim_core::resource::FifoResource;
use corm_sim_core::rng::DetRng;
use corm_sim_core::stats::Histogram;
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::LatencyModel;
use corm_trace::{Stage, TraceHandle};
use rand::Rng;

use crate::oracle::Oracle;
use crate::probe::{ratio, Probe, Span};

pub mod churn;
pub mod rpc;
pub mod tiered;
pub mod ycsb;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// How a workload is sized and seeded.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed of every input stream (keys, mixes, free choices).
    pub seed: u64,
    /// A small, fast version of the workload for the self-tests.
    pub smoke: bool,
}

impl Params {
    /// `full` normally, `smoke` in the self-test version.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// A set-up workload, ready to run rounds.
pub trait World {
    /// Runs one round (a fixed amount of client work). Ops issued while
    /// `rec` is set feed the virtual metrics. Returns the client ops the
    /// round issued.
    fn round(&mut self, rec: bool, probe: &mut Probe) -> u64;

    /// Virtual results of the recorded rounds.
    fn virt(&self) -> &Virt;

    /// Ends the measured part of the run: stops any thread the workload
    /// runs, so everything it recorded is flushed.
    fn end(&mut self) {}

    /// Collects the per-layer metrics when `probe` is given, then runs the
    /// end-of-run oracle: every surviving pointer must resolve one-sided
    /// and by RPC to its last-written payload.
    fn finish(self: Box<Self>, probe: Option<&Probe>) -> Finished;
}

/// What a finished world hands back.
pub struct Finished {
    /// Tally of every checked operation.
    pub oracle: Oracle,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Layers>,
}

/// Virtual-clock results of the recorded segment.
#[derive(Debug, Default)]
pub struct Virt {
    /// Read latency samples (µs).
    pub reads: Histogram,
    /// Write latency samples (µs).
    pub writes: Histogram,
    /// Latency of reads issued while a compaction pass ran (µs).
    pub during: Histogram,
    /// Client ops issued.
    pub ops: u64,
    first: Option<SimTime>,
    last: SimTime,
    /// `active_bytes / live payload bytes`, one sample per recorded round.
    pub mem: Vec<f64>,
    /// Digest of the drawn key stream.
    pub keys_fp: u64,
}

impl Virt {
    /// Records one op issued at `now` on `key` (counted `n` times: a
    /// multi-get counts each key).
    pub fn op(&mut self, now: SimTime, key: u64, n: u64) {
        self.ops += n;
        self.first.get_or_insert(now);
        self.last = self.last.max(now);
        self.keys_fp = fold(self.keys_fp ^ 0xcbf2_9ce4_8422_2325, key);
    }

    /// Client ops per virtual second over the recorded segment, in K.
    pub fn kreqs(&self) -> f64 {
        let span = self.last.saturating_since(self.first.unwrap_or(SimTime::ZERO));
        ratio(self.ops as f64, span.as_secs_f64()) / 1_000.0
    }

    /// Mean memory overhead over the recorded rounds.
    pub fn mem_per_live_byte(&self) -> f64 {
        ratio(self.mem.iter().sum(), self.mem.len() as f64)
    }

    /// Order-sensitive digest of every virtual result: equal iff two runs
    /// produced byte-identical virtual metrics.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fold(0xcbf2_9ce4_8422_2325, self.ops);
        for hist in [&self.reads, &self.writes, &self.during] {
            h = fold(h, hist.len() as u64);
            for q in hist.quantiles(&[0.5, 0.99, 0.999]).unwrap_or_default() {
                h = fold(h, q.to_bits());
            }
            h = fold(h, hist.mean().to_bits());
        }
        for m in &self.mem {
            h = fold(h, m.to_bits());
        }
        h = fold(h, self.kreqs().to_bits());
        fold(h, self.keys_fp)
    }
}

/// FNV-style fold.
pub fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0100_0000_01b3)
}

/// A `FifoResource` station that also tallies how long work waited for
/// it. Admissions arrive in time order per station: one-sided reads and
/// RPC ingress at their issue time, workers at their (non-decreasing)
/// ingress completion.
#[derive(Debug)]
pub struct Station {
    res: FifoResource,
    waited: SimDuration,
}

impl Station {
    /// A station of `servers` identical servers.
    pub fn new(servers: usize) -> Self {
        Station { res: FifoResource::new(servers), waited: SimDuration::ZERO }
    }

    /// Admits work arriving at `now` needing `service`; returns its
    /// completion.
    pub fn admit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let done = self.res.admit(now, service);
        self.waited += done.saturating_since(now).saturating_sub(service);
        done
    }

    /// Mean wait per admission (µs).
    pub fn wait_us_mean(&self) -> f64 {
        ratio(self.waited.as_micros_f64(), self.res.admitted() as f64)
    }

    /// Busy share of `[0, horizon]` across all servers.
    pub fn busy_frac(&self, horizon: SimTime) -> f64 {
        let cap = horizon.saturating_since(SimTime::ZERO).as_secs_f64() * self.res.servers() as f64;
        ratio(self.res.busy().as_secs_f64(), cap)
    }
}

/// The paper's RPC and one-sided service stations (§4.2): a single RPC
/// ingress, the worker pool, and the NIC's inbound engine.
#[derive(Debug)]
pub struct Stations {
    /// RPC ingress (shared request queue + receive path).
    pub ingress: Station,
    /// Worker pool.
    pub workers: Station,
    /// NIC inbound engine.
    pub nic: Station,
    /// Handler costs of the RPCs that went through.
    pub costs: OpCosts,
    model: LatencyModel,
    n_workers: usize,
    next_worker: usize,
    payload: Vec<u8>,
}

/// Virtual milestones of one RPC.
#[derive(Debug, Clone, Copy)]
pub struct RpcTimes {
    /// Ingress done: the worker can start.
    pub ingress_done: SimTime,
    /// Worker done.
    pub worker_done: SimTime,
    /// Reply back at the client.
    pub done: SimTime,
}

impl Stations {
    /// Stations for `server`.
    pub fn new(server: &CormServer) -> Self {
        let n_workers = server.config().workers;
        Stations {
            ingress: Station::new(1),
            workers: Station::new(n_workers),
            nic: Station::new(1),
            costs: OpCosts::default(),
            model: server.model().clone(),
            n_workers,
            next_worker: 0,
            payload: Vec::new(),
        }
    }

    /// Writes the next version of `key` through the RPC write handler,
    /// issued at `now`. Returns the RPC's milestones and whether the write
    /// took effect (a failed write is counted by the oracle).
    pub fn write(
        &mut self,
        server: &CormServer,
        oracle: &mut Oracle,
        ptrs: &mut [GlobalPtr],
        probe: &mut Probe,
        key: u64,
        now: SimTime,
    ) -> (RpcTimes, bool) {
        let version = oracle.version(key) + 1;
        oracle.payload_into(&mut self.payload, key, version);
        let worker = self.next_worker();
        let mut ptr = ptrs[key as usize];
        let payload = &self.payload;
        let written = probe.time(Span::ServerWrite, || server.write(worker, &mut ptr, payload));
        let ok = written.is_ok();
        let cost = match written {
            Ok(t) => {
                oracle.ok();
                oracle.set_version(key, version);
                ptrs[key as usize] = ptr;
                self.costs.add(OpKind::Write, t.cost);
                t.cost
            }
            Err(e) => {
                oracle.fail(|| format!("write of key {key}: {e}"));
                SimDuration::ZERO
            }
        };
        (self.rpc(now, cost, self.payload.len()), ok)
    }

    /// The worker the next RPC runs on (round robin).
    pub fn next_worker(&mut self) -> usize {
        let w = self.next_worker % self.n_workers;
        self.next_worker += 1;
        w
    }

    /// An RPC issued at `now` whose handler cost `cost`, carrying `len`
    /// payload bytes. The request occupies both the NIC's inbound engine,
    /// shared with one-sided reads, and the RPC ingress; the worker starts
    /// once both are done.
    pub fn rpc(&mut self, now: SimTime, cost: SimDuration, len: usize) -> RpcTimes {
        let m = &self.model;
        let received = self.nic.admit(now, m.rpc_nic_service);
        let ingress_done = self.ingress.admit(now, m.rpc_ingress_service).max(received);
        let worker_done = self.workers.admit(ingress_done, cost);
        RpcTimes { ingress_done, worker_done, done: worker_done + rpc_wire(m, len) }
    }

    /// Completion of a one-sided read issued at `now` whose verb took
    /// `cost`, fetching `len` bytes from a `slot_bytes` slot: the NIC
    /// engine is occupied for the read's service time (longer on a
    /// translation-cache miss, inferred from the verb's latency).
    pub fn one_sided(
        &mut self,
        now: SimTime,
        cost: SimDuration,
        len: usize,
        slot_bytes: usize,
    ) -> SimTime {
        let m = &self.model;
        let hit_latency = m.rdma_read_latency(slot_bytes, true) + m.version_check_cost(slot_bytes);
        let service = m.rdma_read_service(len, cost <= hit_latency);
        self.nic.admit(now, service) + cost.saturating_sub(service)
    }

    /// Completion of a whole-block ScanRead issued at `now`.
    pub fn scan(&mut self, now: SimTime, cost: SimDuration, block_bytes: usize) -> SimTime {
        let service = self.model.rdma_read_service(block_bytes, true);
        self.nic.admit(now, service) + cost.saturating_sub(service)
    }

    /// Occupies one worker (the compaction leader) from `now` for `pause`.
    pub fn leader(&mut self, now: SimTime, pause: SimDuration) {
        self.workers.admit(now, pause);
    }

    /// Station metrics over `[0, horizon]`, plus the handler costs.
    pub fn layers(&self, horizon: SimTime, probe: &Probe, out: &mut Layers) {
        self.costs.layers(probe, out);
        for (name, st) in
            [("ingress", &self.ingress), ("worker", &self.workers), ("nic", &self.nic)]
        {
            let (wait, busy) = match name {
                "ingress" => ("station.ingress.wait_us_mean", "station.ingress.busy_frac"),
                "worker" => ("station.worker.wait_us_mean", "station.worker.busy_frac"),
                _ => ("station.nic.wait_us_mean", "station.nic.busy_frac"),
            };
            out.insert(wait, st.wait_us_mean());
            out.insert(busy, st.busy_frac(horizon));
        }
    }
}

/// Mean extra fabric delay of a reply.
pub const JITTER_NS: f64 = 100.0;

/// The fabric delay a reply takes beyond the model's fixed wire time:
/// exponential with mean [`JITTER_NS`], drawn from the client's own
/// seeded stream. It makes latencies continuous, and it keeps identical
/// closed-loop clients over deterministic service times from falling
/// into lockstep, where every op would see the same wait.
pub fn jitter(rng: &mut DetRng) -> Jitter {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let ns = -u.ln() * JITTER_NS;
    Jitter { dur: SimDuration::from_nanos(ns as u64), rest_us: ns.fract() / 1_000.0 }
}

/// A reply jitter: whole nanoseconds for the event clock, plus the
/// sub-nanosecond rest, which latency samples keep.
#[derive(Debug, Clone, Copy)]
pub struct Jitter {
    /// The delay the event clock advances by.
    pub dur: SimDuration,
    rest_us: f64,
}

impl Jitter {
    /// Records a latency `d` (which includes [`Jitter::dur`]) in µs.
    pub fn record(&self, hist: &mut Histogram, d: SimDuration) {
        hist.record(d.as_micros_f64() + self.rest_us);
    }
}

/// The RPC wire share not covered by ingress and worker occupancy.
pub fn rpc_wire(m: &LatencyModel, len: usize) -> SimDuration {
    m.rpc_latency(len).saturating_sub(m.rpc_ingress_service).saturating_sub(m.rpc_worker_service)
}

/// Slot bytes of a `len`-byte payload.
pub fn slot_bytes(server: &CormServer, len: usize) -> usize {
    let class = class_for_payload(server.classes(), len).expect("payload fits a size class");
    server.classes().size_of(class)
}

/// Loads `keys` (each at version 0) through the server's RPC handlers,
/// spreading them over the workers. Returns one pointer per key.
pub fn populate(
    server: &CormServer,
    oracle: &Oracle,
    keys: std::ops::Range<u64>,
) -> Vec<GlobalPtr> {
    let workers = server.config().workers;
    let mut payload = Vec::new();
    keys.map(|key| {
        let worker = key as usize % workers;
        let len = oracle.len_of(key);
        let mut ptr = server.alloc(worker, len).expect("populate alloc").value;
        oracle.payload_into(&mut payload, key, 0);
        server.write(worker, &mut ptr, &payload).expect("populate write");
        ptr
    })
    .collect()
}

/// The end-of-run oracle: every key in `keys` resolves one-sided (with
/// pointer repair) and through the RPC read handler to its last-written
/// payload.
pub fn verify_all(
    server: &CormServer,
    client: &mut CormClient,
    ptrs: &mut [GlobalPtr],
    oracle: &mut Oracle,
    keys: impl IntoIterator<Item = u64>,
    now: SimTime,
) {
    let mut buf = vec![0u8; oracle.max_len()];
    for key in keys {
        let len = oracle.len_of(key);
        let mut ptr = ptrs[key as usize];
        match client.direct_read_with_recovery(&mut ptr, &mut buf[..len], now) {
            Ok(t) => {
                oracle.check(key, &buf[..t.value]);
            }
            Err(e) => oracle.fail(|| format!("final one-sided read of key {key}: {e}")),
        }
        match server.read(0, &mut ptr, &mut buf[..len]) {
            Ok(t) => {
                oracle.check(key, &buf[..t.value]);
            }
            Err(e) => oracle.fail(|| format!("final RPC read of key {key}: {e}")),
        }
        ptrs[key as usize] = ptr;
    }
}

/// Handler-cost tally per server op kind (virtual).
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCosts {
    sums: [SimDuration; 4],
    counts: [u64; 4],
}

/// Server op kinds tallied by [`OpCosts`].
#[derive(Debug, Clone, Copy)]
pub enum OpKind {
    /// `CormServer::read`.
    Read,
    /// `CormServer::write`.
    Write,
    /// `CormServer::alloc`.
    Alloc,
    /// `CormServer::free`.
    Free,
}

impl OpCosts {
    /// Adds one op's handler cost.
    pub fn add(&mut self, kind: OpKind, cost: SimDuration) {
        self.sums[kind as usize] += cost;
        self.counts[kind as usize] += 1;
    }

    /// Mean handler cost per kind, plus the wall means of the matching
    /// spans.
    pub fn layers(&self, probe: &Probe, out: &mut Layers) {
        let names = [
            ("server.read_virt_us", "server.read_ns", Span::ServerRead),
            ("server.write_virt_us", "server.write_ns", Span::ServerWrite),
            ("server.alloc_virt_us", "server.alloc_ns", Span::ServerAlloc),
            ("server.free_virt_us", "server.free_ns", Span::ServerFree),
        ];
        for (i, (virt, wall, span)) in names.into_iter().enumerate() {
            out.insert(virt, ratio(self.sums[i].as_micros_f64(), self.counts[i] as f64));
            out.insert(wall, probe.mean_ns(span));
        }
    }
}

/// Server and NIC counters at one instant; per-layer metrics are deltas
/// from the snapshot taken when set-up finished.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    doorbells: u64,
    wqes: u64,
    bytes_read: u64,
    odp_misses: u64,
    cache_hits: u64,
    cache_misses: u64,
    pin_faults: u64,
    remaps: u64,
    tier_fetches: u64,
    evictions: u64,
    lock_retries: u64,
    corrections: u64,
    refills: u64,
    objects_copied: u64,
}

impl Counters {
    /// Reads every counter of `server` and its RNIC.
    pub fn snapshot(server: &CormServer) -> Self {
        let r = &server.rnic().stats;
        let s = &server.stats;
        let (cache_hits, cache_misses) = server.rnic().cache_stats();
        Counters {
            doorbells: r.doorbells.load(Relaxed),
            wqes: r.wqes.load(Relaxed),
            bytes_read: r.bytes_read.load(Relaxed),
            odp_misses: r.odp_misses.load(Relaxed),
            cache_hits,
            cache_misses,
            pin_faults: r.pin_faults.load(Relaxed),
            remaps: r.reregs.load(Relaxed) + r.advises.load(Relaxed),
            tier_fetches: server.tiering().map_or(0, |t| t.tier().stats().fetches),
            evictions: server.tiering().map_or(0, |t| t.evictions()),
            lock_retries: s.rpc_lock_retries.load(Relaxed),
            corrections: s.corrections.load(Relaxed),
            refills: s.refills.load(Relaxed),
            objects_copied: s.objects_copied.load(Relaxed),
        }
    }
}

/// The layer metrics read off the benchmark's own spans: the draw, the
/// event queue (`events` pops, at most `depth_max` pending) and the
/// client calls. Returns the draws made.
pub fn span_layers(probe: &Probe, events: u64, depth_max: usize, out: &mut Layers) -> u64 {
    let draws = probe.calls(Span::Draw);
    out.insert("workloads.draw_ns", probe.mean_ns(Span::Draw));
    out.insert("workloads.draws", draws as f64);
    out.insert("queue.ns_per_event", ratio(probe.ns(Span::Queue) as f64, events as f64));
    out.insert("queue.events", events as f64);
    out.insert("queue.depth_max", depth_max as f64);
    out.insert("client.direct_read_ns", probe.mean_ns(Span::DirectRead));
    out.insert("client.scan_read_ns", probe.mean_ns(Span::ScanRead));
    out.insert("client.read_batch_ns", probe.mean_ns(Span::ReadBatch));
    draws
}

/// Layer metrics every workload reads the same way: NIC, MTT, DMA,
/// server, registry, allocator, compaction and tier counters since `c0`.
/// `ops` is the client ops issued and `horizon` the last virtual instant
/// of the run.
pub fn common_layers(
    server: &CormServer,
    c0: &Counters,
    ops: u64,
    horizon: SimTime,
    out: &mut Layers,
) {
    let c = Counters::snapshot(server);
    let rnic = server.rnic();
    let doorbells = c.doorbells - c0.doorbells;
    let wqes = c.wqes - c0.wqes;
    out.insert("qp.doorbells", doorbells as f64);
    out.insert("qp.wqes_per_doorbell", ratio(wqes as f64, doorbells as f64));
    out.insert("rnic.engine_busy_frac", rnic.engine_utilization(horizon));
    let admitted = rnic.qos_class_admitted();
    let waited = rnic.qos_class_wait_ns();
    for (i, name) in [
        "rnic.qos_wait_us_per_admit.latency",
        "rnic.qos_wait_us_per_admit.bulk",
        "rnic.qos_wait_us_per_admit.sync",
    ]
    .into_iter()
    .enumerate()
    {
        out.insert(name, ratio(waited[i] as f64 / 1_000.0, admitted[i] as f64));
    }
    let hits = c.cache_hits - c0.cache_hits;
    let misses = c.cache_misses - c0.cache_misses;
    out.insert("mtt.cache_hit_ratio", ratio(hits as f64, (hits + misses) as f64));
    out.insert("mtt.cache_misses", misses as f64);
    out.insert("mtt.odp_misses", (c.odp_misses - c0.odp_misses) as f64);
    out.insert("dma.bytes_read_per_op", ratio((c.bytes_read - c0.bytes_read) as f64, ops as f64));
    out.insert("server.lock_retries", (c.lock_retries - c0.lock_retries) as f64);
    out.insert("registry.corrections", (c.corrections - c0.corrections) as f64);
    out.insert("registry.aliases", server.alias_count() as f64);
    out.insert("alloc.refills", (c.refills - c0.refills) as f64);
    out.insert("alloc.frag_ratio", server.fragmentation_report().overall_ratio());
    out.insert("compaction.objects_copied", (c.objects_copied - c0.objects_copied) as f64);
    out.insert("compaction.remap_verbs", (c.remaps - c0.remaps) as f64);
    out.insert("tier.evictions", (c.evictions - c0.evictions) as f64);
    out.insert("tier.fault_ratio", ratio((c.pin_faults - c0.pin_faults) as f64, wqes as f64));
    out.insert("tier.fetches", (c.tier_fetches - c0.tier_fetches) as f64);
}

/// Stages whose counts are reported, by metric name.
const STAGE_COUNTS: &[(Stage, &str)] = &[
    (Stage::ClientOp, "stage.client_op.count"),
    (Stage::Verb, "stage.verb.count"),
    (Stage::VersionCheck, "stage.version_check.count"),
    (Stage::Scan, "stage.scan.count"),
    (Stage::Copy, "stage.copy.count"),
    (Stage::Backoff, "stage.backoff.count"),
    (Stage::RepairRpc, "stage.repair_rpc.count"),
    (Stage::RpcWire, "stage.rpc_wire.count"),
    (Stage::BatchWindow, "stage.batch_window.count"),
    (Stage::WqePost, "stage.wqe_post.count"),
    (Stage::Doorbell, "stage.doorbell.count"),
    (Stage::EngineService, "stage.engine_service.count"),
    (Stage::MttLookup, "stage.mtt_lookup.count"),
    (Stage::MttMiss, "stage.mtt_miss.count"),
    (Stage::OdpMiss, "stage.odp_miss.count"),
    (Stage::RpcQueueWait, "stage.rpc_queue_wait.count"),
    (Stage::WorkerServe, "stage.worker_serve.count"),
    (Stage::RegistryResolve, "stage.registry_resolve.count"),
    (Stage::LockRetry, "stage.lock_retry.count"),
    (Stage::CompactionCollect, "stage.compaction_collect.count"),
    (Stage::CompactionMerge, "stage.compaction_merge.count"),
    (Stage::MttSync, "stage.mtt_sync.count"),
    (Stage::CompactionPlan, "stage.compaction_plan.count"),
    (Stage::QosClassWait, "stage.qos_class_wait.count"),
    (Stage::TierSpill, "stage.tier_spill.count"),
    (Stage::TierFetch, "stage.tier_fetch.count"),
    (Stage::DynamicPin, "stage.dynamic_pin.count"),
    (Stage::Evict, "stage.evict.count"),
];

/// Stages whose virtual totals are reported, by metric name.
const STAGE_VIRT: &[(Stage, &str)] = &[
    (Stage::ClientOp, "stage.client_op.virt_us"),
    (Stage::Verb, "stage.verb.virt_us"),
    (Stage::Scan, "stage.scan.virt_us"),
    (Stage::Backoff, "stage.backoff.virt_us"),
    (Stage::RepairRpc, "stage.repair_rpc.virt_us"),
    (Stage::BatchWindow, "stage.batch_window.virt_us"),
    (Stage::Doorbell, "stage.doorbell.virt_us"),
    (Stage::EngineService, "stage.engine_service.virt_us"),
    (Stage::MttMiss, "stage.mtt_miss.virt_us"),
    (Stage::OdpMiss, "stage.odp_miss.virt_us"),
    (Stage::WorkerServe, "stage.worker_serve.virt_us"),
    (Stage::CompactionCollect, "stage.compaction_collect.virt_us"),
    (Stage::CompactionMerge, "stage.compaction_merge.virt_us"),
    (Stage::MttSync, "stage.mtt_sync.virt_us"),
    (Stage::QosClassWait, "stage.qos_class_wait.virt_us"),
    (Stage::TierFetch, "stage.tier_fetch.virt_us"),
    (Stage::DynamicPin, "stage.dynamic_pin.virt_us"),
    (Stage::Evict, "stage.evict.virt_us"),
];

/// Per-stage span counts and virtual totals drained from the in-program
/// recorder, net of whatever it held when the tally started. Draining
/// after every round keeps the recorder's bounded sink from dropping
/// events on long runs.
#[derive(Debug)]
pub struct StageTally {
    trace: TraceHandle,
    spans: [u64; Stage::COUNT],
    virt_ns: [u64; Stage::COUNT],
    counters0: [u64; Stage::COUNT],
    samples0: [(u64, u64); Stage::COUNT],
}

impl StageTally {
    /// Starts tallying `trace`'s recorder from now on: events recorded so
    /// far are discarded and counters are taken as the baseline.
    pub fn start(trace: TraceHandle) -> Self {
        trace.drain();
        let mut counters0 = [0; Stage::COUNT];
        for (stage, n) in trace.counters() {
            counters0[stage.index()] = n;
        }
        let mut samples0 = [(0, 0); Stage::COUNT];
        for t in trace.sample_totals() {
            samples0[t.stage.index()] = (t.count, t.total_ns);
        }
        StageTally {
            trace,
            spans: [0; Stage::COUNT],
            virt_ns: [0; Stage::COUNT],
            counters0,
            samples0,
        }
    }

    /// Moves every flushed event into the tally.
    pub fn absorb(&mut self) {
        for e in self.trace.drain() {
            self.spans[e.stage.index()] += 1;
            self.virt_ns[e.stage.index()] += e.dur.as_nanos();
        }
    }

    /// Events the recorder dropped (its sink was full).
    pub fn dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// The stage metrics: a stage's count is the largest of its span
    /// count, its counter and its sample count; its virtual total is its
    /// spans plus its samples.
    pub fn layers(&self, out: &mut Layers) {
        let mut count = self.spans;
        let mut virt_ns = self.virt_ns;
        for (stage, n) in self.trace.counters() {
            let i = stage.index();
            count[i] = count[i].max(n - self.counters0[i]);
        }
        for t in self.trace.sample_totals() {
            let (n0, ns0) = self.samples0[t.stage.index()];
            count[t.stage.index()] = count[t.stage.index()].max(t.count - n0);
            virt_ns[t.stage.index()] += t.total_ns - ns0;
        }
        for &(stage, name) in STAGE_COUNTS {
            out.insert(name, count[stage.index()] as f64);
        }
        for &(stage, name) in STAGE_VIRT {
            out.insert(name, virt_ns[stage.index()] as f64 / 1_000.0);
        }
    }
}
