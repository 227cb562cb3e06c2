//! Weighted, SLO-class-aware scheduling for the RNIC verb engines.
//!
//! The plain round-robin WQE dispatch treats every verb alike, so a tenant
//! spraying bulk scans starves latency-sensitive gets: once the per-unit
//! FIFO backlogs, a get queues behind the whole scan window. Real RNICs
//! (and the NP-RDMA discipline this simulator's verb costs are anchored to)
//! arbitrate between flows, so this module adds a deficit-weighted
//! scheduler in *virtual time*: every verb belongs to a flow — a
//! `(tenant, class)` pair — and the scheduler rations the engines'
//! aggregate service capacity across the *backlogged* flows in proportion
//! to their weights.
//!
//! # Discipline
//!
//! The scheduler must answer each admission immediately (the simulator
//! charges a verb its completion time the moment it is admitted), which
//! rules out exact packetized WFQ: a verb's true finish time depends on
//! arrivals that have not happened yet. It runs the fluid (GPS-style)
//! limit of deficit-weighted round robin instead. Each flow owns a
//! virtual clock `next_start`; a verb of flow `f` with weight `w_f`
//! admitted at `now` for `service` starts at `max(now, next_start[f])`,
//! completes one service later, and advances the clock by
//! `service × W_active / (w_f × capacity)`, where `W_active` sums the
//! weights of the flows backlogged at `now` (maintained incrementally with
//! a drain heap, so admission stays `O(log flows)` even with 10⁵ tenants).
//! Isolation falls out: a saturating bulk flow only drives *its own* clock
//! into the future, so a latency-class verb still starts at its arrival —
//! that is the fig21 `p99 ≤ 2× unloaded` gate. While every flow stays
//! backlogged the admitted work completes at exactly the aggregate
//! capacity (no idle units — pinned by test); once a flow drains
//! mid-backlog the remaining flows keep their frozen shares until real
//! time catches up with their clocks, a conservative (never-overcommitting)
//! artifact of answering admissions immediately.
//!
//! The scheduler is strictly opt-in (`RnicConfig::qos`), and only a
//! weighted config builds one: when every flow weight is equal there is
//! nothing to arbitrate, so the NIC keeps its plain per-unit FIFO
//! round-robin dispatch for a uniform config exactly as for `None`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use corm_sim_core::hash::FastHashMap;
use corm_sim_core::time::{SimDuration, SimTime};

/// The SLO class of a verb or RPC: which service curve it rides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TrafficClass {
    /// Latency-sensitive gets (DirectRead / small READ verbs). Default.
    #[default]
    Latency = 0,
    /// Bulk scans and large transfers.
    Bulk = 1,
    /// Compaction MTT-sync and other maintenance traffic.
    Sync = 2,
}

impl TrafficClass {
    /// Number of classes (sizes per-class counter arrays).
    pub const COUNT: usize = 3;

    /// Every class, in priority order (latency first).
    pub const ALL: [TrafficClass; TrafficClass::COUNT] =
        [TrafficClass::Latency, TrafficClass::Bulk, TrafficClass::Sync];

    /// Dense index for counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake-case name used by metrics exporters.
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::Latency => "latency",
            TrafficClass::Bulk => "bulk",
            TrafficClass::Sync => "sync",
        }
    }
}

/// Configuration of the weighted class/tenant scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosConfig {
    /// Per-class weights, indexed by [`TrafficClass`]. A flow's weight is
    /// `class_weights[class] × tenant weight`. The defaults prioritize
    /// gets over scans over maintenance sync.
    pub class_weights: [u64; TrafficClass::COUNT],
    /// Weight of tenants without an explicit entry.
    pub default_tenant_weight: u64,
    /// Per-tenant weight overrides.
    pub tenant_weights: Vec<(u32, u64)>,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig { class_weights: [8, 2, 1], default_tenant_weight: 1, tenant_weights: Vec::new() }
    }
}

impl QosConfig {
    /// A configuration with every class and tenant weighted equally — the
    /// neutral configuration, under which the NIC builds no scheduler.
    pub fn equal_weights() -> Self {
        QosConfig {
            class_weights: [1; TrafficClass::COUNT],
            default_tenant_weight: 1,
            tenant_weights: Vec::new(),
        }
    }

    /// Whether every flow ends up with the same weight, leaving nothing to
    /// arbitrate: the NIC then runs its plain FIFO dispatch instead of a
    /// scheduler.
    pub fn is_uniform(&self) -> bool {
        self.class_weights.iter().all(|&w| w == self.class_weights[0])
            && self.tenant_weights.iter().all(|&(_, w)| w == self.default_tenant_weight)
    }

    /// The weight of one `(tenant, class)` flow.
    pub fn flow_weight(&self, tenant: u32, class: TrafficClass) -> u64 {
        let tw = self
            .tenant_weights
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, w)| *w)
            .unwrap_or(self.default_tenant_weight);
        (self.class_weights[class.index()].max(1)) * tw.max(1)
    }
}

/// One flow's scheduling state.
#[derive(Debug, Clone, Copy)]
struct FlowState {
    /// Earliest virtual time the flow's next verb may start service.
    next_start: SimTime,
    /// Cached flow weight (`class_weight × tenant_weight`).
    weight: u64,
    /// Whether the flow is currently counted in the active weight sum.
    active: bool,
}

/// Admission result for one verb.
#[derive(Debug, Clone, Copy)]
pub struct QosAdmission {
    /// Instant the verb's engine service completes.
    pub done: SimTime,
    /// Scheduler-imposed wait between arrival and service start — time the
    /// verb spent held back by its flow's share, not by engine backlog.
    pub class_wait: SimDuration,
    /// Processing unit charged with the service (names the trace track).
    pub unit: usize,
}

/// The SLO-class-aware scheduler for the RNIC's inbound engines. See the
/// module docs for the discipline it runs.
#[derive(Debug)]
pub struct QosScheduler {
    config: QosConfig,
    flows: FastHashMap<u64, FlowState>,
    /// Drain heap of `(next_start, flow)` used to deactivate flows whose
    /// clocks real time has caught up with. Entries are lazily deleted: a
    /// flow's clock is monotone, so an entry is current iff it equals the
    /// flow's stored `next_start`.
    drain: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Sum of the weights of currently-backlogged flows.
    w_active: u64,
    /// Aggregate engine capacity (units × width servers).
    capacity: u64,
    /// Processing-order clamp, mirroring `FifoResource`: admissions stay
    /// causal even if a caller's clock lags.
    last_admit: SimTime,
    /// Round-robin cursor assigning trace units.
    next_unit: usize,
    units: usize,
    /// Verbs admitted.
    admitted: u64,
    /// Aggregate service time admitted (for utilization metrics).
    busy: SimDuration,
    /// Per-class admitted counts.
    class_admitted: [u64; TrafficClass::COUNT],
    /// Per-class scheduler-imposed wait, summed (ns).
    class_wait_ns: [u64; TrafficClass::COUNT],
}

#[inline]
fn flow_key(tenant: u32, class: TrafficClass) -> u64 {
    ((tenant as u64) << 2) | class.index() as u64
}

impl QosScheduler {
    /// Creates a scheduler rationing `units` engines of `width` servers
    /// each — the same shape as the legacy engine array.
    pub fn new(config: QosConfig, units: usize, width: usize) -> Self {
        let units = units.max(1);
        QosScheduler {
            config,
            flows: FastHashMap::default(),
            drain: BinaryHeap::new(),
            w_active: 0,
            capacity: (units * width.max(1)) as u64,
            last_admit: SimTime::ZERO,
            next_unit: 0,
            units,
            admitted: 0,
            busy: SimDuration::ZERO,
            class_admitted: [0; TrafficClass::COUNT],
            class_wait_ns: [0; TrafficClass::COUNT],
        }
    }

    /// Admits one verb of `(tenant, class)` arriving at `now` needing
    /// `service` time, and returns when it completes.
    pub fn admit(
        &mut self,
        tenant: u32,
        class: TrafficClass,
        now: SimTime,
        service: SimDuration,
    ) -> QosAdmission {
        let now = now.max(self.last_admit);
        self.last_admit = now;
        // Deactivate flows whose clocks real time has caught up with: they
        // are no longer backlogged and stop diluting everyone else's share.
        while let Some(&Reverse((t, k))) = self.drain.peek() {
            if t > now {
                break;
            }
            self.drain.pop();
            if let Some(f) = self.flows.get_mut(&k) {
                if f.active && f.next_start == t {
                    f.active = false;
                    self.w_active -= f.weight;
                }
            }
        }
        let key = flow_key(tenant, class);
        let weight = self.config.flow_weight(tenant, class);
        let flow = self.flows.entry(key).or_insert(FlowState {
            next_start: SimTime::ZERO,
            weight,
            active: false,
        });
        if !flow.active {
            flow.active = true;
            self.w_active += flow.weight;
        }
        let start = flow.next_start.max(now);
        let done = start + service;
        let spacing =
            service.as_nanos().saturating_mul(self.w_active).div_ceil(flow.weight * self.capacity);
        flow.next_start = start + SimDuration::from_nanos(spacing);
        self.drain.push(Reverse((flow.next_start, key)));
        let unit = self.next_unit;
        self.next_unit = (self.next_unit + 1) % self.units;
        let class_wait = start.saturating_since(now);
        self.admitted += 1;
        self.busy += service;
        self.class_admitted[class.index()] += 1;
        self.class_wait_ns[class.index()] += class_wait.as_nanos();
        QosAdmission { done, class_wait, unit }
    }

    /// Verbs admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Aggregate service time admitted (the engines' busy time).
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Mean utilization of the engines over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / (horizon.as_secs_f64() * self.capacity as f64)
    }

    /// Per-class admitted counts, indexed by [`TrafficClass`].
    pub fn class_admitted(&self) -> [u64; TrafficClass::COUNT] {
        self.class_admitted
    }

    /// Per-class scheduler-imposed wait (ns), indexed by [`TrafficClass`].
    pub fn class_wait_ns(&self) -> [u64; TrafficClass::COUNT] {
        self.class_wait_ns
    }

    /// The configuration in force.
    pub fn config(&self) -> &QosConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }
    fn at(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn saturating_bulk_does_not_delay_latency_class() {
        // Isolation: bulk backlogs its own clock far ahead; a latency verb
        // still starts at its arrival and completes in one service.
        let mut qos = QosScheduler::new(QosConfig::default(), 1, 1);
        let s = us(10);
        for _ in 0..1000 {
            qos.admit(7, TrafficClass::Bulk, at(0), s);
        }
        let get = qos.admit(1, TrafficClass::Latency, at(50), us(2));
        assert_eq!(get.done, at(52), "latency verb must not queue behind bulk");
        assert_eq!(get.class_wait, SimDuration::ZERO);
    }

    #[test]
    fn backlogged_flows_split_capacity_by_weight() {
        // Two backlogged flows with weights 3:1 — over a long window the
        // heavier flow completes ~3x the verbs of the lighter one at equal
        // service times.
        let cfg = QosConfig {
            class_weights: [1, 1, 1],
            default_tenant_weight: 1,
            tenant_weights: vec![(1, 3), (2, 1)],
        };
        assert!(!cfg.is_uniform());
        let mut qos = QosScheduler::new(cfg, 1, 1);
        let s = us(1);
        let horizon = at(4_000);
        let (mut heavy, mut light) = (0u64, 0u64);
        for _ in 0..4000 {
            if qos.admit(1, TrafficClass::Latency, at(0), s).done <= horizon {
                heavy += 1;
            }
            if qos.admit(2, TrafficClass::Latency, at(0), s).done <= horizon {
                light += 1;
            }
        }
        let ratio = heavy as f64 / light as f64;
        assert!((2.5..=3.5).contains(&ratio), "weights 3:1 must yield ~3x: {ratio}");
    }

    #[test]
    fn weighted_discipline_serves_at_capacity_while_all_backlogged() {
        // Work conservation, skewed weights: while every flow still has
        // runnable WQEs the engines complete work at full capacity — the
        // completed service in [0, T] tracks T with no idle gap.
        let mut qos = QosScheduler::new(QosConfig::default(), 1, 1);
        let s = us(4);
        let mut dones = Vec::new();
        for i in 0..300 {
            let class = TrafficClass::ALL[i % TrafficClass::COUNT];
            dones.push(qos.admit(0, class, at(0), s).done);
        }
        dones.sort();
        // All three flows stay backlogged until the latency flow's last
        // completion; up to there, completions must arrive at one per
        // service time (within one slot of slack for the fluid rounding).
        let all_backlogged_until = dones[99]; // 100 latency verbs at weight 8 finish first
        let within = dones.iter().filter(|&&d| d <= all_backlogged_until).count() as u64;
        let expect = all_backlogged_until.as_nanos() / s.as_nanos();
        assert!(
            within + 1 >= expect,
            "engines idled while all classes backlogged: {within} completions by \
             {all_backlogged_until}, capacity allows {expect}"
        );
        // ... and never overcommit: no window may complete more work than
        // the engines physically can.
        assert!(within <= expect + 1, "overcommitted: {within} > {expect}");
    }

    #[test]
    fn weighted_flows_reactivate_after_draining() {
        // A flow that drains (real time passes its clock) stops diluting
        // others: after bulk's backlog is long gone, latency runs at full
        // rate again and bulk restarts cleanly.
        let mut qos = QosScheduler::new(QosConfig::default(), 1, 1);
        let s = us(2);
        for _ in 0..10 {
            qos.admit(0, TrafficClass::Bulk, at(0), s);
        }
        // Far past bulk's frozen clock: bulk is inactive, a lone latency
        // flow gets the whole engine (FIFO recurrence).
        let a = qos.admit(1, TrafficClass::Latency, at(10_000), s);
        let b = qos.admit(1, TrafficClass::Latency, at(10_000), s);
        assert_eq!(a.done, at(10_002));
        assert_eq!(b.done, at(10_004), "drained bulk flow must not dilute latency");
    }

    #[test]
    fn flow_weight_composes_class_and_tenant() {
        let cfg = QosConfig {
            class_weights: [8, 2, 1],
            default_tenant_weight: 2,
            tenant_weights: vec![(9, 5)],
        };
        assert_eq!(cfg.flow_weight(9, TrafficClass::Latency), 40);
        assert_eq!(cfg.flow_weight(9, TrafficClass::Sync), 5);
        assert_eq!(cfg.flow_weight(3, TrafficClass::Bulk), 4);
        assert!(!cfg.is_uniform());
        assert!(QosConfig::equal_weights().is_uniform());
    }

    #[test]
    fn class_names_and_indices_are_stable() {
        assert_eq!(TrafficClass::ALL.map(|c| c.index()), [0, 1, 2]);
        assert_eq!(TrafficClass::ALL.map(|c| c.name()), ["latency", "bulk", "sync"]);
        assert_eq!(TrafficClass::default(), TrafficClass::Latency);
    }

    #[test]
    fn per_class_counters_accumulate() {
        let mut qos = QosScheduler::new(QosConfig::default(), 1, 1);
        qos.admit(0, TrafficClass::Latency, at(0), us(1));
        qos.admit(0, TrafficClass::Bulk, at(0), us(2));
        qos.admit(0, TrafficClass::Bulk, at(0), us(2));
        assert_eq!(qos.class_admitted(), [1, 2, 0]);
        assert_eq!(qos.admitted(), 3);
        assert_eq!(qos.busy(), us(5));
        // The second bulk verb waited behind bulk's own clock.
        assert!(qos.class_wait_ns()[TrafficClass::Bulk.index()] > 0);
        assert_eq!(qos.class_wait_ns()[TrafficClass::Latency.index()], 0);
    }
}
