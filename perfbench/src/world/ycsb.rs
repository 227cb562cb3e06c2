//! `ycsb_b_direct`: YCSB-B (95:5) over 256 K 32-byte objects, scrambled
//! Zipf θ=0.99, 16 closed-loop clients. Reads are one-sided DirectReads
//! (ScanRead repair on a relocated object); writes travel the RPC path
//! through the ingress and worker stations. A read whose fetch overlaps
//! an in-flight write to its key is torn and retried after a backoff.
//! The RNIC translation cache is shrunk below the store's page count.

use std::sync::Arc;

use corm_core::client::{CormClient, FixStrategy};
use corm_core::consistency::ReadFailure;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::{GlobalPtr, ReadOutcome};
use corm_sim_core::hash::FastHashMap;
use corm_sim_core::queue::EventQueue;
use corm_sim_core::rng::{stream_rng, DetRng};
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::RnicConfig;
use corm_trace::TraceHandle;
use corm_workloads::ycsb::{KeyDist, Mix, Op, Workload};

use super::{
    common_layers, jitter, populate, slot_bytes, span_layers, verify_all, Counters, Finished,
    Layers, Params, Stations, Virt, World,
};
use crate::oracle::Oracle;
use crate::probe::{ratio, Probe, Span};

const VALUE_LEN: usize = 32;
const CLIENTS: usize = 16;
/// Translation-cache entries: below the ~3 K pages the store spans, so the
/// Zipf tail misses.
const CACHE_ENTRIES: usize = 2 * 1024;
const BACKOFF: SimDuration = SimDuration::from_micros(5);

enum Ev {
    /// Client is ready to issue its next op.
    Ready(usize),
    /// Client retries a torn read of `key`, first issued at `t0`.
    Retry { client: usize, key: u64, t0: SimTime, rec: bool },
}

/// The set-up workload.
pub struct Ycsb {
    server: Arc<CormServer>,
    client: CormClient,
    ptrs: Vec<GlobalPtr>,
    oracle: Oracle,
    workload: Workload,
    rngs: Vec<DetRng>,
    jitter_rngs: Vec<DetRng>,
    queue: EventQueue<Ev>,
    st: Stations,
    /// Per key, the virtual window of the last write's worker service.
    write_busy: FastHashMap<u64, (SimTime, SimTime)>,
    buf: Vec<u8>,
    slot_bytes: usize,
    live_bytes: f64,
    round_ops: u64,
    virt: Virt,
    c0: Counters,
    events: u64,
    depth_max: usize,
    direct_reads: u64,
    torn: u64,
    repairs: u64,
    now: SimTime,
}

/// Boots and loads the store.
pub fn setup(p: Params, trace: TraceHandle) -> Ycsb {
    let objects = p.pick(1 << 18, 1 << 14) as u64;
    let config = ServerConfig {
        rnic: RnicConfig { cache_entries: CACHE_ENTRIES, ..RnicConfig::default() },
        trace,
        ..ServerConfig::default()
    };
    let server = Arc::new(CormServer::new(config));
    let oracle = Oracle::new(vec![VALUE_LEN as u16; objects as usize]);
    let ptrs = populate(&server, &oracle, 0..objects);
    let live_bytes = oracle.bytes_of(0..objects) as f64;
    let client = CormClient::connect_with(
        server.clone(),
        corm_core::client::ClientConfig {
            fix_strategy: FixStrategy::ScanRead,
            backoff: BACKOFF,
            ..Default::default()
        },
    );
    let mut queue = EventQueue::new();
    for c in 0..CLIENTS {
        queue.schedule(SimTime::from_nanos(c as u64 * 100), Ev::Ready(c));
    }
    Ycsb {
        st: Stations::new(&server),
        slot_bytes: slot_bytes(&server, VALUE_LEN),
        c0: Counters::snapshot(&server),
        client,
        ptrs,
        oracle,
        workload: Workload::new(objects, KeyDist::ZipfScrambled(0.99), Mix::READ_HEAVY),
        rngs: (0..CLIENTS).map(|c| stream_rng(p.seed, c as u64)).collect(),
        jitter_rngs: (0..CLIENTS).map(|c| stream_rng(p.seed, (CLIENTS + c) as u64)).collect(),
        queue,
        write_busy: FastHashMap::default(),
        buf: vec![0; VALUE_LEN],
        live_bytes,
        round_ops: p.pick(1 << 16, 1 << 13),
        virt: Virt::default(),
        events: 0,
        depth_max: 0,
        direct_reads: 0,
        torn: 0,
        repairs: 0,
        now: SimTime::ZERO,
        server,
    }
}

impl Ycsb {
    /// One DirectRead attempt of `key` at `now`; schedules the client's
    /// next event and returns the read's latency once it completes.
    fn read(
        &mut self,
        probe: &mut Probe,
        cid: usize,
        key: u64,
        now: SimTime,
        t0: SimTime,
        rec: bool,
    ) {
        let ptr = self.ptrs[key as usize];
        self.direct_reads += 1;
        let attempt =
            probe.time(Span::DirectRead, || self.client.direct_read(&ptr, &mut self.buf, now));
        let attempt = match attempt {
            Ok(a) => a,
            Err(e) => {
                self.oracle.fail(|| format!("direct read of key {key}: {e}"));
                self.ready(probe, cid, now + BACKOFF);
                return;
            }
        };
        let torn =
            self.write_busy.get(&key).is_some_and(|&(s, e)| now < e && now + attempt.cost > s);
        let done = match attempt.value {
            ReadOutcome::Ok(n) if !torn => {
                self.oracle.check(key, &self.buf[..n]);
                self.st.one_sided(now, attempt.cost, VALUE_LEN, self.slot_bytes)
            }
            ReadOutcome::Invalid(ReadFailure::IdMismatch { .. } | ReadFailure::NotValid)
                if !torn =>
            {
                let mut ptr = self.ptrs[key as usize];
                self.repairs += 1;
                let scan = probe
                    .time(Span::ScanRead, || self.client.scan_read(&mut ptr, &mut self.buf, now));
                match scan {
                    Ok(t) => {
                        self.oracle.check(key, &self.buf[..t.value]);
                        self.ptrs[key as usize] = ptr;
                        self.st.scan(now, t.cost, self.server.block_bytes())
                    }
                    Err(e) => {
                        self.oracle.fail(|| format!("scan read of key {key}: {e}"));
                        now + attempt.cost
                    }
                }
            }
            _ => {
                // Torn or locked: retry after the §3.2.3 backoff.
                self.torn += 1;
                let at = now + attempt.cost + BACKOFF;
                probe.time(Span::Queue, || {
                    self.queue.schedule(at, Ev::Retry { client: cid, key, t0, rec })
                });
                return;
            }
        };
        let j = jitter(&mut self.jitter_rngs[cid]);
        let done = done + j.dur;
        if rec {
            j.record(&mut self.virt.reads, done - t0);
        }
        self.ready(probe, cid, done);
    }

    fn write(&mut self, probe: &mut Probe, cid: usize, key: u64, now: SimTime, rec: bool) {
        let (t, _) = self.st.write(&self.server, &mut self.oracle, &mut self.ptrs, probe, key, now);
        self.write_busy.insert(key, (t.ingress_done, t.worker_done));
        let j = jitter(&mut self.jitter_rngs[cid]);
        let done = t.done + j.dur;
        if rec {
            j.record(&mut self.virt.writes, done - now);
        }
        self.ready(probe, cid, done);
    }

    fn ready(&mut self, probe: &mut Probe, cid: usize, at: SimTime) {
        probe.time(Span::Queue, || self.queue.schedule(at, Ev::Ready(cid)));
        self.depth_max = self.depth_max.max(self.queue.len());
    }
}

impl World for Ycsb {
    fn round(&mut self, rec: bool, probe: &mut Probe) -> u64 {
        let mut issued = 0;
        while issued < self.round_ops {
            let (now, ev) =
                probe.time(Span::Queue, || self.queue.pop()).expect("closed loop never drains");
            self.events += 1;
            self.now = now;
            match ev {
                Ev::Ready(cid) => {
                    issued += 1;
                    let op = probe.time(Span::Draw, || self.workload.next_op(&mut self.rngs[cid]));
                    if rec {
                        self.virt.op(now, op.key(), 1);
                    }
                    match op {
                        Op::Read(key) => self.read(probe, cid, key, now, now, rec),
                        Op::Write(key) => self.write(probe, cid, key, now, rec),
                    }
                }
                Ev::Retry { client, key, t0, rec } => self.read(probe, client, key, now, t0, rec),
            }
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
            out.insert(
                "client.validation_fail_ratio",
                ratio((self.torn + self.repairs) as f64, self.direct_reads as f64),
            );
            out.insert("client.corrections", self.repairs as f64);
            out.insert("qp.conn_state_bytes", self.client.conn_state_bytes() as f64);
            common_layers(&self.server, &self.c0, draws, self.now, &mut out);
            out
        });
        let keys = 0..self.ptrs.len() as u64;
        verify_all(
            &self.server,
            &mut self.client,
            &mut self.ptrs,
            &mut self.oracle,
            keys,
            self.now,
        );
        Finished { oracle: self.oracle, layers }
    }
}
