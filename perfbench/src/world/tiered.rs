//! `tiered_multiget`: a 2×-oversubscribed pinless server (NP-RDMA-style
//! dynamic pinning over an NVMe far tier, pin budget = half the live
//! frames). Four closed-loop tenants share one `MuxQp` with weighted QoS.
//! A tenant op is a depth-16 `read_batch` (Zipf θ=0.9 over 256 K 64-byte
//! objects) or, one time in four, a single RPC write. Every fourth key
//! read is fed to `note_access`; the pin budget is enforced every 64
//! multi-gets.

use std::sync::Arc;

use corm_core::client::CormClient;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::GlobalPtr;
use corm_sim_core::queue::EventQueue;
use corm_sim_core::rng::{stream_rng, DetRng};
use corm_sim_core::time::SimTime;
use corm_sim_mem::TierConfig;
use corm_sim_rdma::{MttUpdateStrategy, MuxQp, QosConfig, RnicConfig};
use corm_trace::TraceHandle;
use corm_workloads::ycsb::{KeyDist, Mix, Op, Workload};

use super::{
    common_layers, jitter, populate, span_layers, verify_all, Counters, Finished, Layers, Params,
    Stations, Virt, World,
};
use crate::oracle::Oracle;
use crate::probe::{ratio, Probe, Span};

const VALUE_LEN: usize = 64;
const TENANTS: usize = 4;
const BATCH: usize = 16;
const OVERSUBSCRIPTION: u64 = 2;
const ENFORCE_EVERY: u64 = 64;
const NOTE_EVERY: usize = 4;

/// The set-up workload.
pub struct Tiered {
    server: Arc<CormServer>,
    clients: Vec<CormClient>,
    ptrs: Vec<GlobalPtr>,
    oracle: Oracle,
    workload: Workload,
    rngs: Vec<DetRng>,
    jitter_rngs: Vec<DetRng>,
    queue: EventQueue<usize>,
    st: Stations,
    keys: Vec<u64>,
    bptrs: Vec<GlobalPtr>,
    bufs: Vec<Vec<u8>>,
    live_bytes: f64,
    round_ops: u64,
    batches: u64,
    virt: Virt,
    c0: Counters,
    events: u64,
    depth_max: usize,
    now: SimTime,
}

/// Boots and loads the store, then spills down to the pin budget.
pub fn setup(p: Params, trace: TraceHandle) -> Tiered {
    let objects = p.pick(1 << 18, 1 << 13) as u64;
    let config = ServerConfig {
        mtt_strategy: MttUpdateStrategy::Rereg,
        pin_budget_frames: Some(usize::MAX),
        tier: Some(TierConfig::nvme()),
        qos: Some(QosConfig::default()),
        rnic: RnicConfig { dynamic_pin: true, ..RnicConfig::default() },
        trace,
        ..ServerConfig::default()
    };
    let server = Arc::new(CormServer::new(config));
    let oracle = Oracle::new(vec![VALUE_LEN as u16; objects as usize]);
    let ptrs = populate(&server, &oracle, 0..objects);
    let live_bytes = oracle.bytes_of(0..objects) as f64;
    let (live, _) = server.block_frames();
    assert!(server.set_pin_budget((live / OVERSUBSCRIPTION).max(1) as usize));
    server.enforce_pin_budget(SimTime::ZERO).expect("initial pin-budget enforcement");
    let mux = MuxQp::connect(server.rnic().clone(), TENANTS);
    let clients = (0..TENANTS)
        .map(|_| CormClient::connect_mux(server.clone(), mux.attach().expect("tenant slot")))
        .collect();
    let mut queue = EventQueue::new();
    for t in 0..TENANTS {
        queue.schedule(SimTime::from_nanos(t as u64 * 100), t);
    }
    Tiered {
        st: Stations::new(&server),
        c0: Counters::snapshot(&server),
        clients,
        ptrs,
        oracle,
        workload: Workload::new(objects, KeyDist::Zipf(0.9), Mix::from_ratio(3, 1)),
        rngs: (0..TENANTS).map(|t| stream_rng(p.seed, t as u64)).collect(),
        jitter_rngs: (0..TENANTS).map(|t| stream_rng(p.seed, (TENANTS + t) as u64)).collect(),
        queue,
        keys: Vec::with_capacity(BATCH),
        bptrs: Vec::with_capacity(BATCH),
        bufs: vec![vec![0; VALUE_LEN]; BATCH],
        live_bytes,
        round_ops: p.pick(1 << 10, 1 << 8),
        batches: 0,
        virt: Virt::default(),
        events: 0,
        depth_max: 0,
        now: SimTime::ZERO,
        server,
    }
}

impl Tiered {
    /// One depth-16 multi-get by `tenant`, first key `first`; returns its
    /// completion.
    fn multiget(
        &mut self,
        probe: &mut Probe,
        tenant: usize,
        first: u64,
        now: SimTime,
        rec: bool,
    ) -> SimTime {
        self.keys.clear();
        self.keys.push(first);
        for _ in 1..BATCH {
            let key = probe.time(Span::Draw, || self.workload.next_key(&mut self.rngs[tenant]));
            self.keys.push(key);
        }
        if rec {
            for &k in &self.keys[1..] {
                self.virt.op(now, k, 1);
            }
        }
        self.bptrs.clear();
        self.bptrs.extend(self.keys.iter().map(|&k| self.ptrs[k as usize]));
        let client = &mut self.clients[tenant];
        let read =
            probe.time(Span::ReadBatch, || client.read_batch(&mut self.bptrs, &mut self.bufs, now));
        let j = jitter(&mut self.jitter_rngs[tenant]);
        let done = match read {
            Ok(t) => {
                for (i, &k) in self.keys.iter().enumerate() {
                    self.oracle.check(k, &self.bufs[i][..t.value[i]]);
                    self.ptrs[k as usize] = self.bptrs[i];
                }
                now + t.cost + j.dur
            }
            Err(e) => {
                self.oracle.fail(|| format!("multi-get of {} keys: {e}", self.keys.len()));
                now
            }
        };
        if rec {
            j.record(&mut self.virt.reads, done - now);
        }
        for &k in self.keys.iter().step_by(NOTE_EVERY) {
            let ptr = self.ptrs[k as usize];
            probe.time(Span::NoteAccess, || self.server.note_access(&ptr));
        }
        self.batches += 1;
        if self.batches.is_multiple_of(ENFORCE_EVERY) {
            if let Err(e) = probe.time(Span::Enforce, || self.server.enforce_pin_budget(now)) {
                self.oracle.fail(|| format!("pin-budget enforcement: {e}"));
            }
        }
        done
    }

    fn write(
        &mut self,
        probe: &mut Probe,
        tenant: usize,
        key: u64,
        now: SimTime,
        rec: bool,
    ) -> SimTime {
        let (t, _) = self.st.write(&self.server, &mut self.oracle, &mut self.ptrs, probe, key, now);
        let j = jitter(&mut self.jitter_rngs[tenant]);
        let done = t.done + j.dur;
        if rec {
            j.record(&mut self.virt.writes, done - now);
        }
        done
    }
}

impl World for Tiered {
    fn round(&mut self, rec: bool, probe: &mut Probe) -> u64 {
        let mut issued = 0;
        for _ in 0..self.round_ops {
            let (now, tenant) =
                probe.time(Span::Queue, || self.queue.pop()).expect("closed loop never drains");
            self.events += 1;
            self.now = now;
            let op = probe.time(Span::Draw, || self.workload.next_op(&mut self.rngs[tenant]));
            if rec {
                self.virt.op(now, op.key(), 1);
            }
            let done = match op {
                Op::Read(key) => {
                    issued += BATCH as u64;
                    self.multiget(probe, tenant, key, now, rec)
                }
                Op::Write(key) => {
                    issued += 1;
                    self.write(probe, tenant, key, now, rec)
                }
            };
            probe.time(Span::Queue, || self.queue.schedule(done, tenant));
            self.depth_max = self.depth_max.max(self.queue.len());
        }
        if rec {
            self.virt.mem.push(self.server.active_bytes() as f64 / self.live_bytes);
        }
        issued
    }

    fn virt(&self) -> &Virt {
        &self.virt
    }

    fn finish(mut self: Box<Self>, probe: Option<&Probe>) -> Finished {
        let layers = probe.map(|probe| {
            let mut out = Layers::new();
            let draws = span_layers(probe, self.events, self.depth_max, &mut out);
            self.st.layers(self.now, probe, &mut out);
            let failed: u64 = self.clients.iter().map(|c| c.failed_direct_reads).sum();
            let entries = self.batches * BATCH as u64;
            out.insert("client.validation_fail_ratio", ratio(failed as f64, entries as f64));
            out.insert("client.corrections", failed as f64);
            let conn: usize = self.clients.iter().map(|c| c.conn_state_bytes()).sum();
            out.insert("qp.conn_state_bytes", conn as f64);
            out.insert("tier.enforce_ns", probe.mean_ns(Span::Enforce));
            common_layers(&self.server, &self.c0, draws, self.now, &mut out);
            out
        });
        let keys = 0..self.ptrs.len() as u64;
        verify_all(
            &self.server,
            &mut self.clients[0],
            &mut self.ptrs,
            &mut self.oracle,
            keys,
            self.now,
        );
        Finished { oracle: self.oracle, layers }
    }
}
