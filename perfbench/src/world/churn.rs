//! `churn_compact`: Redis-style allocation spikes over a 256 K key space
//! in two size classes (24- and 88-byte payloads). A round is one churn
//! cycle: four closed-loop mutators allocate and write a spike of new
//! objects, then free a random third of the live objects, and once all
//! mutators are idle the leader calls `compact_if_fragmented`. Four
//! closed-loop readers read random live objects one-sided the whole time,
//! repairing relocated pointers with ScanRead, so their reads overlap
//! each compaction pass in virtual time.

use std::sync::Arc;

use corm_core::client::{ClientConfig, CormClient, FixStrategy};
use corm_core::consistency::ReadFailure;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::{GlobalPtr, ReadOutcome};
use corm_sim_core::queue::EventQueue;
use corm_sim_core::rng::{stream_rng, DetRng};
use corm_sim_core::time::{SimDuration, SimTime};
use corm_trace::TraceHandle;
use rand::Rng;

use super::{
    common_layers, jitter, populate, slot_bytes, span_layers, verify_all, Counters, Finished,
    Jitter, Layers, OpKind, Params, Stations, Virt, World,
};
use crate::oracle::Oracle;
use crate::probe::{ratio, Probe, Span};

const SIZES: [usize; 2] = [24, 88];
const MUTATORS: usize = 4;
const READERS: usize = 4;
/// Fragmentation ratio that triggers a pass; a cycle's frees push every
/// class well past it.
const FRAG_THRESHOLD: f64 = 1.25;

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Reader is ready for its next read.
    Reader(usize),
    /// Mutator is ready for its next mutation.
    Mutator(usize),
    /// Mutator's allocation of `key` returned; the write follows.
    Write(usize, u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Alloc,
    Free,
    Drain,
}

/// The set-up workload.
pub struct Churn {
    server: Arc<CormServer>,
    client: CormClient,
    ptrs: Vec<GlobalPtr>,
    oracle: Oracle,
    /// Live keys (readable), and each key's index in it.
    live: Vec<u64>,
    pos: Vec<u32>,
    /// Keys not allocated, in seeded order.
    free_keys: Vec<u64>,
    spike: usize,
    rng: DetRng,
    reader_rngs: Vec<DetRng>,
    /// Reply-jitter streams: readers first, then mutators.
    jitter_rngs: Vec<DetRng>,
    queue: EventQueue<Ev>,
    st: Stations,
    phase: Phase,
    plan: Vec<u64>,
    idle: usize,
    window: Option<(SimTime, SimTime)>,
    buf: Vec<u8>,
    slot_bytes: [usize; 2],
    virt: Virt,
    c0: Counters,
    events: u64,
    depth_max: usize,
    ops: u64,
    direct_reads: u64,
    repairs: u64,
    passes: u64,
    pause: SimDuration,
    collected: u64,
    blocks_freed: u64,
    now: SimTime,
}

const NOT_LIVE: u32 = u32::MAX;

/// Boots the server, loads 1.5 spikes' worth of objects and frees a
/// random third of them, leaving the steady-state live set fragmented.
pub fn setup(p: Params, trace: TraceHandle) -> Churn {
    let keys = p.pick(1usize << 18, 1 << 13);
    let spike = keys / 4;
    let config = ServerConfig { frag_threshold: FRAG_THRESHOLD, trace, ..ServerConfig::default() };
    let server = Arc::new(CormServer::new(config));
    let oracle = Oracle::new((0..keys).map(|k| SIZES[k & 1] as u16).collect());
    let loaded = spike * 3;
    let mut ptrs = populate(&server, &oracle, 0..loaded as u64);
    ptrs.resize(keys, GlobalPtr { vaddr: 0, rkey: 0, obj_id: 0, class: 0, flags: 0 });
    let mut rng = stream_rng(p.seed, 0xC4_07);
    let mut free_keys: Vec<u64> = (loaded as u64..keys as u64).collect();
    shuffle(&mut free_keys, &mut rng);
    let mut churn = Churn {
        st: Stations::new(&server),
        slot_bytes: SIZES.map(|len| slot_bytes(&server, len)),
        c0: Counters::default(),
        client: CormClient::connect_with(
            server.clone(),
            ClientConfig { fix_strategy: FixStrategy::ScanRead, ..ClientConfig::default() },
        ),
        ptrs,
        oracle,
        live: (0..loaded as u64).collect(),
        pos: (0..keys as u32).map(|k| if (k as usize) < loaded { k } else { NOT_LIVE }).collect(),
        free_keys,
        spike,
        reader_rngs: (0..READERS).map(|r| stream_rng(p.seed, r as u64)).collect(),
        jitter_rngs: (0..READERS + MUTATORS)
            .map(|i| stream_rng(p.seed, (READERS + i) as u64))
            .collect(),
        rng,
        queue: EventQueue::new(),
        phase: Phase::Alloc,
        plan: Vec::new(),
        idle: 0,
        window: None,
        buf: vec![0; SIZES[1]],
        virt: Virt::default(),
        events: 0,
        depth_max: 0,
        ops: 0,
        direct_reads: 0,
        repairs: 0,
        passes: 0,
        pause: SimDuration::ZERO,
        collected: 0,
        blocks_freed: 0,
        now: SimTime::ZERO,
        server,
    };
    let third = churn.third_of_live();
    for key in third {
        let mut ptr = churn.ptrs[key as usize];
        churn.server.free(0, &mut ptr).expect("fragmenting free");
        churn.unlive(key);
    }
    churn.c0 = Counters::snapshot(&churn.server);
    for r in 0..READERS {
        churn.queue.schedule(SimTime::from_nanos(r as u64 * 100), Ev::Reader(r));
    }
    churn.start_cycle(SimTime::ZERO);
    churn
}

fn shuffle(v: &mut [u64], rng: &mut DetRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

impl Churn {
    /// A random third of the live keys.
    fn third_of_live(&mut self) -> Vec<u64> {
        let mut pick = self.live.clone();
        let n = pick.len() / 3;
        for i in 0..n {
            let j = self.rng.gen_range(i..pick.len());
            pick.swap(i, j);
        }
        pick.truncate(n);
        pick
    }

    fn unlive(&mut self, key: u64) {
        let i = self.pos[key as usize] as usize;
        let last = self.live.pop().expect("key is live");
        if last != key {
            self.live[i] = last;
            self.pos[last as usize] = i as u32;
        }
        self.pos[key as usize] = NOT_LIVE;
        self.free_keys.push(key);
    }

    fn make_live(&mut self, key: u64) {
        self.pos[key as usize] = self.live.len() as u32;
        self.live.push(key);
    }

    /// Plans the next spike and wakes every mutator at `at`.
    fn start_cycle(&mut self, at: SimTime) {
        let keep = self.free_keys.len() - self.spike;
        self.plan = self.free_keys.split_off(keep);
        self.phase = Phase::Alloc;
        self.idle = 0;
        for m in 0..MUTATORS {
            self.queue.schedule(at + SimDuration::from_nanos(m as u64 * 100), Ev::Mutator(m));
        }
    }

    /// Counts one client op on `key` issued at `now`.
    fn issue(&mut self, now: SimTime, key: u64, rec: bool) {
        self.ops += 1;
        if rec {
            self.virt.op(now, key, 1);
        }
    }

    /// The reply jitter of the client whose next request is `ev`.
    fn jitter(&mut self, ev: Ev) -> Jitter {
        let i = match ev {
            Ev::Reader(r) => r,
            Ev::Mutator(m) | Ev::Write(m, _) => READERS + m,
        };
        jitter(&mut self.jitter_rngs[i])
    }

    fn schedule(&mut self, probe: &mut Probe, at: SimTime, ev: Ev) {
        probe.time(Span::Queue, || self.queue.schedule(at, ev));
        self.depth_max = self.depth_max.max(self.queue.len());
    }

    fn read(&mut self, probe: &mut Probe, r: usize, now: SimTime, rec: bool) {
        let n = self.live.len();
        let key = probe.time(Span::Draw, || self.live[self.reader_rngs[r].gen_range(0..n)]);
        self.issue(now, key, rec);
        let len = self.oracle.len_of(key);
        let mut ptr = self.ptrs[key as usize];
        self.direct_reads += 1;
        let buf = &mut self.buf[..len];
        let attempt = probe.time(Span::DirectRead, || self.client.direct_read(&ptr, buf, now));
        let done = match attempt {
            Ok(t) => match t.value {
                ReadOutcome::Ok(n) => {
                    self.oracle.check(key, &self.buf[..n]);
                    self.st.one_sided(now, t.cost, len, self.slot_bytes[(key & 1) as usize])
                }
                ReadOutcome::Invalid(ReadFailure::IdMismatch { .. } | ReadFailure::NotValid) => {
                    self.repairs += 1;
                    let buf = &mut self.buf[..len];
                    let scan =
                        probe.time(Span::ScanRead, || self.client.scan_read(&mut ptr, buf, now));
                    match scan {
                        Ok(s) => {
                            self.oracle.check(key, &self.buf[..s.value]);
                            self.ptrs[key as usize] = ptr;
                            self.st.scan(now, s.cost, self.server.block_bytes())
                        }
                        Err(e) => {
                            self.oracle.fail(|| format!("scan read of key {key}: {e}"));
                            now + t.cost
                        }
                    }
                }
                ReadOutcome::Invalid(f) => {
                    self.oracle.fail(|| format!("direct read of key {key}: {f:?}"));
                    now + t.cost
                }
            },
            Err(e) => {
                self.oracle.fail(|| format!("direct read of key {key}: {e}"));
                now + self.server.model().rpc_ingress_service
            }
        };
        let j = self.jitter(Ev::Reader(r));
        let done = done + j.dur;
        if rec {
            j.record(&mut self.virt.reads, done - now);
            if self.window.is_some_and(|(w0, w1)| now >= w0 && now < w1) {
                j.record(&mut self.virt.during, done - now);
            }
        }
        self.schedule(probe, done, Ev::Reader(r));
    }

    /// The mutator's next step; returns true once the cycle's compaction
    /// pass has been run.
    fn mutate(&mut self, probe: &mut Probe, m: usize, now: SimTime, rec: bool) -> bool {
        if self.phase == Phase::Alloc && self.plan.is_empty() {
            self.phase = Phase::Free;
            self.plan = self.third_of_live();
        }
        if self.phase == Phase::Free && self.plan.is_empty() {
            self.phase = Phase::Drain;
        }
        let Some(key) = (self.phase != Phase::Drain).then(|| self.plan.pop()).flatten() else {
            self.idle += 1;
            if self.idle < MUTATORS {
                return false;
            }
            self.compact(probe, now, rec);
            return true;
        };
        self.issue(now, key, rec);
        let worker = self.st.next_worker();
        let len = self.oracle.len_of(key);
        match self.phase {
            Phase::Alloc => {
                let alloc = probe.time(Span::ServerAlloc, || self.server.alloc(worker, len));
                let cost = match alloc {
                    Ok(t) => {
                        self.oracle.ok();
                        self.ptrs[key as usize] = t.value;
                        self.st.costs.add(OpKind::Alloc, t.cost);
                        t.cost
                    }
                    Err(e) => {
                        self.oracle.fail(|| format!("alloc of key {key}: {e}"));
                        self.free_keys.push(key);
                        SimDuration::ZERO
                    }
                };
                let done = self.st.rpc(now, cost, 0).done + self.jitter(Ev::Write(m, key)).dur;
                self.schedule(probe, done, Ev::Write(m, key));
            }
            _ => {
                let mut ptr = self.ptrs[key as usize];
                self.unlive(key);
                let freed = probe.time(Span::ServerFree, || self.server.free(worker, &mut ptr));
                let cost = match freed {
                    Ok(t) => {
                        self.oracle.ok();
                        self.st.costs.add(OpKind::Free, t.cost);
                        t.cost
                    }
                    Err(e) => {
                        self.oracle.fail(|| format!("free of key {key}: {e}"));
                        SimDuration::ZERO
                    }
                };
                let done = self.st.rpc(now, cost, 0).done + self.jitter(Ev::Mutator(m)).dur;
                self.schedule(probe, done, Ev::Mutator(m));
            }
        }
        false
    }

    /// Writes the first version of a freshly allocated key, which then
    /// becomes readable.
    fn write(&mut self, probe: &mut Probe, m: usize, key: u64, now: SimTime, rec: bool) {
        self.issue(now, key, rec);
        let (t, ok) =
            self.st.write(&self.server, &mut self.oracle, &mut self.ptrs, probe, key, now);
        if ok {
            self.make_live(key);
        }
        let j = self.jitter(Ev::Mutator(m));
        let done = t.done + j.dur;
        if rec {
            j.record(&mut self.virt.writes, done - now);
        }
        self.schedule(probe, done, Ev::Mutator(m));
    }

    /// Runs the cycle's compaction pass on the leader and starts the next
    /// cycle when it ends.
    fn compact(&mut self, probe: &mut Probe, now: SimTime, rec: bool) {
        let reports = probe.time(Span::Compaction, || self.server.compact_if_fragmented(now));
        let pause = match reports {
            Ok(reports) => {
                self.oracle.ok();
                let mut pause = SimDuration::ZERO;
                for r in &reports {
                    pause += r.total_cost();
                    self.collected += r.collected as u64;
                    self.blocks_freed += r.blocks_freed as u64;
                }
                self.passes += reports.len() as u64;
                pause
            }
            Err(e) => {
                self.oracle.fail(|| format!("compaction pass: {e}"));
                SimDuration::ZERO
            }
        };
        self.pause += pause;
        self.st.leader(now, pause);
        self.window = Some((now, now + pause));
        if rec {
            let live = self.oracle.bytes_of(self.live.iter().copied());
            self.virt.mem.push(self.server.active_bytes() as f64 / live as f64);
        }
        self.start_cycle(now + pause);
    }
}

impl World for Churn {
    fn round(&mut self, rec: bool, probe: &mut Probe) -> u64 {
        let start = self.ops;
        loop {
            let (now, ev) =
                probe.time(Span::Queue, || self.queue.pop()).expect("closed loop never drains");
            self.events += 1;
            self.now = now;
            match ev {
                Ev::Reader(r) => self.read(probe, r, now, rec),
                Ev::Write(m, key) => self.write(probe, m, key, now, rec),
                Ev::Mutator(m) => {
                    if self.mutate(probe, m, now, rec) {
                        break;
                    }
                }
            }
        }
        self.ops - start
    }

    fn virt(&self) -> &Virt {
        &self.virt
    }

    fn finish(mut self: Box<Self>, probe: Option<&Probe>) -> Finished {
        let layers = probe.map(|probe| {
            let mut out = Layers::new();
            span_layers(probe, self.events, self.depth_max, &mut out);
            self.st.layers(self.now, probe, &mut out);
            out.insert(
                "client.validation_fail_ratio",
                ratio(self.repairs as f64, self.direct_reads as f64),
            );
            out.insert("client.corrections", self.repairs as f64);
            out.insert("qp.conn_state_bytes", self.client.conn_state_bytes() as f64);
            out.insert(
                "compaction.pass_ns",
                ratio(probe.ns(Span::Compaction) as f64, self.passes as f64),
            );
            out.insert("compaction.passes", self.passes as f64);
            out.insert(
                "compaction.pause_virt_us",
                ratio(self.pause.as_micros_f64(), self.passes as f64),
            );
            out.insert(
                "compaction.freed_per_collected",
                ratio(self.blocks_freed as f64, self.collected as f64),
            );
            common_layers(&self.server, &self.c0, self.ops, self.now, &mut out);
            out
        });
        let live = self.live.clone();
        verify_all(
            &self.server,
            &mut self.client,
            &mut self.ptrs,
            &mut self.oracle,
            live,
            self.now,
        );
        Finished { oracle: self.oracle, layers }
    }
}
