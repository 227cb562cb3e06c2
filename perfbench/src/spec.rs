//! What the benchmark measures: its workloads, its metrics (mirrored in
//! `BENCHMARK.json` at the repository root), and which end-to-end metric
//! each layer metric is expected to move, on which workload.

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` per layer).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run of every workload.
/// Virtual-clock metrics repeat exactly under a seed; the wall-clock ones
/// (`sim_ops_per_wall_s`, `setup_s`) and `peak_rss_mib` describe the host
/// running the simulator.
pub const END_TO_END: &[Metric] = &[
    e2e("throughput_kreqs", "Kreq/s", Higher, 0.05),
    e2e("read_p50_us", "us", Lower, 0.05),
    e2e("read_p999_us", "us", Lower, 0.1),
    e2e("write_p50_us", "us", Lower, 0.05),
    e2e("write_p999_us", "us", Lower, 0.1),
    e2e("mem_per_live_byte", "B/B", Lower, 0.05),
    e2e("sim_ops_per_wall_s", "ops/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.1),
];

/// Per-layer metrics, printed by every traced run (zero where the
/// workload leaves the layer idle). `*_ns` timings are host wall clock
/// taken around calls from the benchmark into the layer's public API;
/// `*_us` timings are virtual.
pub const PER_LAYER: &[Metric] = &[
    layer("workloads.draw_ns", "ns", Lower),
    layer("workloads.draws", "count", Lower),
    layer("queue.ns_per_event", "ns", Lower),
    layer("queue.events", "count", Lower),
    layer("queue.depth_max", "count", Lower),
    layer("station.ingress.wait_us_mean", "us", Lower),
    layer("station.ingress.busy_frac", "ratio", Lower),
    layer("station.worker.wait_us_mean", "us", Lower),
    layer("station.worker.busy_frac", "ratio", Lower),
    layer("station.nic.wait_us_mean", "us", Lower),
    layer("station.nic.busy_frac", "ratio", Lower),
    layer("client.direct_read_ns", "ns", Lower),
    layer("client.scan_read_ns", "ns", Lower),
    layer("client.read_batch_ns", "ns", Lower),
    layer("client.validation_fail_ratio", "ratio", Lower),
    layer("client.corrections", "count", Lower),
    layer("qp.doorbells", "count", Lower),
    layer("qp.wqes_per_doorbell", "count", Higher),
    layer("qp.conn_state_bytes", "B", Lower),
    layer("rnic.engine_busy_frac", "ratio", Lower),
    layer("rnic.qos_wait_us_per_admit.latency", "us", Lower),
    layer("rnic.qos_wait_us_per_admit.bulk", "us", Lower),
    layer("rnic.qos_wait_us_per_admit.sync", "us", Lower),
    layer("mtt.cache_hit_ratio", "ratio", Higher),
    layer("mtt.cache_misses", "count", Lower),
    layer("mtt.odp_misses", "count", Lower),
    layer("dma.bytes_read_per_op", "B", Lower),
    layer("server.read_ns", "ns", Lower),
    layer("server.write_ns", "ns", Lower),
    layer("server.alloc_ns", "ns", Lower),
    layer("server.free_ns", "ns", Lower),
    layer("server.read_virt_us", "us", Lower),
    layer("server.write_virt_us", "us", Lower),
    layer("server.alloc_virt_us", "us", Lower),
    layer("server.free_virt_us", "us", Lower),
    layer("server.lock_retries", "count", Lower),
    layer("registry.corrections", "count", Lower),
    layer("registry.aliases", "count", Lower),
    layer("alloc.refills", "count", Lower),
    layer("alloc.frag_ratio", "ratio", Lower),
    layer("compaction.pass_ns", "ns", Lower),
    layer("compaction.passes", "count", Lower),
    layer("compaction.pause_virt_us", "us", Lower),
    layer("compaction.objects_copied", "count", Lower),
    layer("compaction.freed_per_collected", "ratio", Higher),
    layer("compaction.remap_verbs", "count", Lower),
    layer("compaction.read_p99_during_us", "us", Lower),
    layer("tier.enforce_ns", "ns", Lower),
    layer("tier.evictions", "count", Lower),
    layer("tier.fault_ratio", "ratio", Lower),
    layer("tier.fetches", "count", Lower),
    layer("rpc.call_rtt_ns_p50", "ns", Lower),
    layer("rpc.call_rtt_ns_p99", "ns", Lower),
    layer("rpc.timeouts", "count", Lower),
    layer("driver.self_ns", "ns", Lower),
    layer("driver.trace_overhead_frac", "ratio", Lower),
    // The in-program recorder (`corm-trace`, switched on through
    // `ServerConfig::trace`): per-stage counts ...
    layer("stage.client_op.count", "count", Lower),
    layer("stage.verb.count", "count", Lower),
    layer("stage.version_check.count", "count", Lower),
    layer("stage.scan.count", "count", Lower),
    layer("stage.copy.count", "count", Lower),
    layer("stage.backoff.count", "count", Lower),
    layer("stage.repair_rpc.count", "count", Lower),
    layer("stage.rpc_wire.count", "count", Lower),
    layer("stage.batch_window.count", "count", Lower),
    layer("stage.wqe_post.count", "count", Lower),
    layer("stage.doorbell.count", "count", Lower),
    layer("stage.engine_service.count", "count", Lower),
    layer("stage.mtt_lookup.count", "count", Lower),
    layer("stage.mtt_miss.count", "count", Lower),
    layer("stage.odp_miss.count", "count", Lower),
    layer("stage.rpc_queue_wait.count", "count", Lower),
    layer("stage.worker_serve.count", "count", Lower),
    layer("stage.registry_resolve.count", "count", Lower),
    layer("stage.lock_retry.count", "count", Lower),
    layer("stage.compaction_collect.count", "count", Lower),
    layer("stage.compaction_merge.count", "count", Lower),
    layer("stage.mtt_sync.count", "count", Lower),
    layer("stage.compaction_plan.count", "count", Lower),
    layer("stage.qos_class_wait.count", "count", Lower),
    layer("stage.tier_spill.count", "count", Lower),
    layer("stage.tier_fetch.count", "count", Lower),
    layer("stage.dynamic_pin.count", "count", Lower),
    layer("stage.evict.count", "count", Lower),
    // ... and virtual totals of the stages that carry virtual time.
    layer("stage.client_op.virt_us", "us", Lower),
    layer("stage.verb.virt_us", "us", Lower),
    layer("stage.scan.virt_us", "us", Lower),
    layer("stage.backoff.virt_us", "us", Lower),
    layer("stage.repair_rpc.virt_us", "us", Lower),
    layer("stage.batch_window.virt_us", "us", Lower),
    layer("stage.doorbell.virt_us", "us", Lower),
    layer("stage.engine_service.virt_us", "us", Lower),
    layer("stage.mtt_miss.virt_us", "us", Lower),
    layer("stage.odp_miss.virt_us", "us", Lower),
    layer("stage.worker_serve.virt_us", "us", Lower),
    layer("stage.compaction_collect.virt_us", "us", Lower),
    layer("stage.compaction_merge.virt_us", "us", Lower),
    layer("stage.mtt_sync.virt_us", "us", Lower),
    layer("stage.qos_class_wait.virt_us", "us", Lower),
    layer("stage.tier_fetch.virt_us", "us", Lower),
    layer("stage.dynamic_pin.virt_us", "us", Lower),
    layer("stage.evict.virt_us", "us", Lower),
];

/// A named workload and why it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it is here: which layers it loads and which it leaves idle.
    pub why: &'static str,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "ycsb_b_direct",
        why: "YCSB-B over 256K objects, one-sided reads: the paper's headline path; draw, queue, client validation, MTT cache and DMA busy, compaction and tier idle",
    },
    WorkloadSpec {
        name: "churn_compact",
        why: "allocation spikes, frees and compaction passes under overlapping readers: allocator, registry, compaction, remap and pointer repair busy",
    },
    WorkloadSpec {
        name: "tiered_multiget",
        why: "2x-oversubscribed pinless server, four tenants on one mux QP with QoS: doorbells, RNIC engine, MTT and tier fetch/spill/evict busy",
    },
    WorkloadSpec {
        name: "rpc_threaded",
        why: "synchronous RPC reads and writes against a one-worker ThreadedServer: the only workload crossing the RPC channel and worker loop",
    },
];

/// One layer: the repository module it names and the end-to-end metric
/// its per-layer metrics should move, on which workload.
#[derive(Debug, Clone, Copy)]
pub struct LayerMap {
    /// Metric-name prefix (`<layer>.`).
    pub layer: &'static str,
    /// The module(s) of the repository it times or counts.
    pub module: &'static str,
    /// End-to-end metric(s) and workload(s) it should move.
    pub moves: &'static str,
}

/// Layer → end-to-end map, written down before any optimisation is
/// measured against it.
pub const LAYERS: &[LayerMap] = &[
    LayerMap {
        layer: "workloads",
        module: "corm-workloads ycsb/zipf",
        moves: "sim_ops_per_wall_s on ycsb_b_direct, tiered_multiget",
    },
    LayerMap {
        layer: "queue",
        module: "corm-sim-core queue + arena",
        moves: "sim_ops_per_wall_s on ycsb_b_direct, churn_compact; no change on tiered_multiget, rpc_threaded",
    },
    LayerMap {
        layer: "station",
        module: "corm-sim-core resource",
        moves: "throughput_kreqs, read_p999_us, write_p999_us on ycsb_b_direct",
    },
    LayerMap {
        layer: "client",
        module: "corm-core client",
        moves: "sim_ops_per_wall_s on ycsb_b_direct, tiered_multiget; read_p999_us via retries",
    },
    LayerMap {
        layer: "qp",
        module: "corm-sim-rdma qp/wq/mux",
        moves: "sim_ops_per_wall_s on tiered_multiget",
    },
    LayerMap {
        layer: "rnic",
        module: "corm-sim-rdma rnic engine + sched (QoS)",
        moves: "throughput_kreqs, read_p999_us on tiered_multiget",
    },
    LayerMap {
        layer: "mtt",
        module: "corm-sim-rdma cache + MTT shards",
        moves: "read_p50_us, read_p999_us, sim_ops_per_wall_s on ycsb_b_direct",
    },
    LayerMap {
        layer: "dma",
        module: "corm-sim-mem phys",
        moves: "count only; explains sim_ops_per_wall_s shifts",
    },
    LayerMap {
        layer: "server",
        module: "corm-core server handlers",
        moves: "sim_ops_per_wall_s on rpc_threaded, churn_compact; write_p999_us on ycsb_b_direct",
    },
    LayerMap {
        layer: "registry",
        module: "corm-core server/registry",
        moves: "compaction.read_p99_during_us on churn_compact",
    },
    LayerMap {
        layer: "alloc",
        module: "corm-alloc",
        moves: "mem_per_live_byte, sim_ops_per_wall_s on churn_compact",
    },
    LayerMap {
        layer: "compaction",
        module: "corm-core server/compaction + plan",
        moves: "mem_per_live_byte, sim_ops_per_wall_s on churn_compact; no change elsewhere",
    },
    LayerMap {
        layer: "tier",
        module: "corm-core server/tiering + corm-sim-mem tier",
        moves: "sim_ops_per_wall_s, throughput_kreqs, read_p999_us on tiered_multiget",
    },
    LayerMap {
        layer: "rpc",
        module: "corm-sim-rdma rpc + corm-core server/threaded",
        moves: "sim_ops_per_wall_s on rpc_threaded",
    },
    LayerMap {
        layer: "driver",
        module: "this benchmark's own loop",
        moves: "reconciliation only: traced wall minus the layer spans",
    },
    LayerMap {
        layer: "stage",
        module: "corm-trace recorder (in-program spans and counters)",
        moves: "explains the layer metrics above; virtual totals repeat exactly under a seed",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
