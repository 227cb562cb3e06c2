//! The span taxonomy: every stage a simulated operation can spend virtual
//! time in, across all three layers (client verbs, NIC, server/compaction).
//!
//! Stages are classified by [`StageClass`] so exporters can *reconcile* the
//! per-op accounting: for every client op, the durations of its `Leaf` spans
//! must sum exactly to the duration of its `Op` span — the leaves are
//! recorded at the same `total += cost; clock += cost` sites that build the
//! op's total, so equality holds by construction and any mismatch is a
//! wiring bug. `Detail` stages (NIC internals, server-side service, queue
//! waits, compaction) annotate the same timeline but are deliberately
//! outside the sum: they overlap leaves rather than partition them.

/// Where a stage sits in the per-op cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageClass {
    /// A whole client operation; its duration is the op's total virtual cost.
    Op,
    /// A client-side charge site; leaf durations partition the op total.
    Leaf,
    /// Annotation outside the op sum (NIC/server/compaction internals).
    Detail,
}

/// One stage of the cross-layer span taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// A whole client operation (read/write/batch, including recovery).
    ClientOp,
    /// One-sided verb wire + NIC latency charged to the client clock.
    Verb,
    /// §3.2 version/consistency check cost after a verb completes.
    VersionCheck,
    /// Block scan cost (alias repair via `BlockScan`, scan reads).
    Scan,
    /// Client-side copy cost charged on the write path.
    Copy,
    /// Exponential backoff between recovery attempts.
    Backoff,
    /// QP reconnect cost during recovery.
    Reconnect,
    /// Server round trip that repairs a stale pointer or serves a fallback.
    RepairRpc,
    /// RPC wire cost for repaired payload bytes.
    RpcWire,
    /// Makespan of one batched-verb window (doorbell to last completion).
    BatchWindow,
    /// WQE posted in a doorbell batch (counter; posting itself is free).
    WqePost,
    /// Doorbell cost admitting a batch into the RNIC.
    Doorbell,
    /// Per-WQE service occupancy on one NIC processing unit.
    EngineService,
    /// MTT shard lookup (counter per one-sided access).
    MttLookup,
    /// MTT shard lookup that missed the translation cache.
    MttMiss,
    /// ODP page miss resolved during address translation.
    OdpMiss,
    /// Fault-injector draw that fired (transient, delay, miss, QP break).
    FaultDraw,
    /// Injected delay-spike duration.
    FaultDelay,
    /// Wall-clock wait of an RPC envelope in a worker queue.
    RpcQueueWait,
    /// Virtual-time service span of one RPC on a server worker.
    WorkerServe,
    /// Block-registry resolve during `locate` (wall-clock sample).
    RegistryResolve,
    /// Server-side lock-contention retry (compaction-locked header).
    LockRetry,
    /// Collection stage of one compaction pass (pick merge candidates).
    CompactionCollect,
    /// One block merge (lock, copy, remap + MTT sync, release).
    CompactionMerge,
    /// MTT synchronisation call issued while remapping (rereg/advise).
    MttSync,
    /// Merge-plan computation: the greedy pairing laid out into disjoint
    /// lanes before any merge executes (zero virtual cost).
    CompactionPlan,
    /// A pause-bounded pass yielding so queued RPCs can interleave.
    CompactionYield,
    /// Scheduler-imposed wait: a WQE or RPC held back by its traffic
    /// class's share while other classes used the capacity.
    QosClassWait,
    /// A worker stealing queued work from a sibling's class queue
    /// (counter; stealing itself is free).
    QosSteal,
    /// One lane's safe execution window under windowed lane-parallel
    /// execution: the virtual span `[open, committed)` the lane drained
    /// before its clock advance was published.
    LaneWindow,
    /// A lane committing its window to the shared timeline (counter;
    /// the commit itself is free in virtual time).
    LaneCommit,
    /// One page spilled out of DRAM to the far tier (duration = transfer
    /// completion including channel queueing).
    TierSpill,
    /// One page fetched back from the far tier into DRAM.
    TierFetch,
    /// NP-RDMA dynamic-pin fault: the NIC pinning an unpinned page so a
    /// one-sided access may proceed.
    DynamicPin,
    /// The pin-budget manager evicting one block (all its frames spilled).
    Evict,
    /// Closed-loop hot loop: event-queue schedule/pop/peek (wall-clock
    /// sample; the `simspeed --profile` per-stage breakdown).
    HotQueue,
    /// Closed-loop hot loop: workload op draw + per-client RNG (wall).
    HotWorkload,
    /// Closed-loop hot loop: RPC write service — server.write plus the
    /// ingress/NIC/worker admissions (wall).
    HotWrite,
    /// Closed-loop hot loop: RPC read service — server.read plus
    /// admissions, including correction fallbacks (wall).
    HotRpcRead,
    /// Closed-loop hot loop: one-sided DirectRead verb — client post to
    /// validated payload, plus NIC admission (wall).
    HotDirectRead,
    /// Closed-loop hot loop: completion bookkeeping — latency histograms,
    /// write-busy tracking, completion scheduling (wall).
    HotBookkeep,
}

impl Stage {
    /// Number of stages (sizes the recorder's counter arrays).
    pub const COUNT: usize = 41;

    /// Every stage, in declaration order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::ClientOp,
        Stage::Verb,
        Stage::VersionCheck,
        Stage::Scan,
        Stage::Copy,
        Stage::Backoff,
        Stage::Reconnect,
        Stage::RepairRpc,
        Stage::RpcWire,
        Stage::BatchWindow,
        Stage::WqePost,
        Stage::Doorbell,
        Stage::EngineService,
        Stage::MttLookup,
        Stage::MttMiss,
        Stage::OdpMiss,
        Stage::FaultDraw,
        Stage::FaultDelay,
        Stage::RpcQueueWait,
        Stage::WorkerServe,
        Stage::RegistryResolve,
        Stage::LockRetry,
        Stage::CompactionCollect,
        Stage::CompactionMerge,
        Stage::MttSync,
        Stage::CompactionPlan,
        Stage::CompactionYield,
        Stage::QosClassWait,
        Stage::QosSteal,
        Stage::LaneWindow,
        Stage::LaneCommit,
        Stage::TierSpill,
        Stage::TierFetch,
        Stage::DynamicPin,
        Stage::Evict,
        Stage::HotQueue,
        Stage::HotWorkload,
        Stage::HotWrite,
        Stage::HotRpcRead,
        Stage::HotDirectRead,
        Stage::HotBookkeep,
    ];

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake-case name used in every exporter format.
    pub fn name(self) -> &'static str {
        match self {
            Stage::ClientOp => "client_op",
            Stage::Verb => "verb",
            Stage::VersionCheck => "version_check",
            Stage::Scan => "scan",
            Stage::Copy => "copy",
            Stage::Backoff => "backoff",
            Stage::Reconnect => "reconnect",
            Stage::RepairRpc => "repair_rpc",
            Stage::RpcWire => "rpc_wire",
            Stage::BatchWindow => "batch_window",
            Stage::WqePost => "wqe_post",
            Stage::Doorbell => "doorbell",
            Stage::EngineService => "engine_service",
            Stage::MttLookup => "mtt_lookup",
            Stage::MttMiss => "mtt_miss",
            Stage::OdpMiss => "odp_miss",
            Stage::FaultDraw => "fault_draw",
            Stage::FaultDelay => "fault_delay",
            Stage::RpcQueueWait => "rpc_queue_wait",
            Stage::WorkerServe => "worker_serve",
            Stage::RegistryResolve => "registry_resolve",
            Stage::LockRetry => "lock_retry",
            Stage::CompactionCollect => "compaction_collect",
            Stage::CompactionMerge => "compaction_merge",
            Stage::MttSync => "mtt_sync",
            Stage::CompactionPlan => "compaction_plan",
            Stage::CompactionYield => "compaction_yield",
            Stage::QosClassWait => "qos_class_wait",
            Stage::QosSteal => "qos_steal",
            Stage::LaneWindow => "lane_window",
            Stage::LaneCommit => "lane_commit",
            Stage::TierSpill => "tier_spill",
            Stage::TierFetch => "tier_fetch",
            Stage::DynamicPin => "dynamic_pin",
            Stage::Evict => "evict",
            Stage::HotQueue => "hot_queue",
            Stage::HotWorkload => "hot_workload",
            Stage::HotWrite => "hot_write",
            Stage::HotRpcRead => "hot_rpc_read",
            Stage::HotDirectRead => "hot_direct_read",
            Stage::HotBookkeep => "hot_bookkeep",
        }
    }

    /// The stage's role in per-op reconciliation.
    pub fn class(self) -> StageClass {
        match self {
            Stage::ClientOp => StageClass::Op,
            Stage::Verb
            | Stage::VersionCheck
            | Stage::Scan
            | Stage::Copy
            | Stage::Backoff
            | Stage::Reconnect
            | Stage::RepairRpc
            | Stage::RpcWire
            | Stage::BatchWindow => StageClass::Leaf,
            _ => StageClass::Detail,
        }
    }
}

/// A timeline an event belongs to; one Perfetto track per variant instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The client's advancing virtual clock.
    Client,
    /// NIC-global events (doorbells, fault draws, MTT misses).
    Nic,
    /// One NIC processing unit's service timeline.
    EngineUnit(u32),
    /// One server worker's virtual-clock timeline.
    Worker(u32),
    /// The compaction leader's timeline.
    Compaction,
    /// One execution lane's windowed timeline.
    Lane(u32),
}

impl Track {
    /// Stable Perfetto `tid` for the track (all tracks share `pid` 1).
    pub fn tid(self) -> u64 {
        match self {
            Track::Client => 1,
            Track::Nic => 2,
            Track::Compaction => 3,
            Track::EngineUnit(u) => 16 + u as u64,
            Track::Worker(w) => 4096 + w as u64,
            Track::Lane(l) => 65536 + l as u64,
        }
    }

    /// Human-readable track name shown in the Perfetto UI.
    pub fn label(self) -> String {
        match self {
            Track::Client => "client".to_string(),
            Track::Nic => "nic".to_string(),
            Track::Compaction => "compaction".to_string(),
            Track::EngineUnit(u) => format!("engine-unit-{u}"),
            Track::Worker(w) => format!("worker-{w}"),
            Track::Lane(l) => format!("lane-{l}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_stage_once() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "ALL must be in declaration order");
        }
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT, "stage names must be unique");
    }

    #[test]
    fn leaf_stages_are_exactly_the_client_charge_sites() {
        let leaves: Vec<Stage> =
            Stage::ALL.iter().copied().filter(|s| s.class() == StageClass::Leaf).collect();
        assert_eq!(
            leaves,
            [
                Stage::Verb,
                Stage::VersionCheck,
                Stage::Scan,
                Stage::Copy,
                Stage::Backoff,
                Stage::Reconnect,
                Stage::RepairRpc,
                Stage::RpcWire,
                Stage::BatchWindow,
            ]
        );
        assert_eq!(Stage::ClientOp.class(), StageClass::Op);
    }

    #[test]
    fn track_tids_do_not_collide() {
        let tracks = [
            Track::Client,
            Track::Nic,
            Track::Compaction,
            Track::EngineUnit(0),
            Track::EngineUnit(7),
            Track::Worker(0),
            Track::Worker(63),
            Track::Lane(0),
            Track::Lane(7),
        ];
        let mut tids: Vec<u64> = tracks.iter().map(|t| t.tid()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), tracks.len());
    }
}
