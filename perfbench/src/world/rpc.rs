//! `rpc_threaded`: a `ThreadedServer` with one worker thread, driven by
//! synchronous `RpcClient` calls from the benchmark's thread — 50:50
//! reads and writes, uniform over 64 K 32-byte objects. A call's virtual
//! latency is the worker's charge to the server clock plus the modelled
//! wire time and reply jitter.

use std::sync::Arc;
use std::time::Duration;

use corm_core::client::CormClient;
use corm_core::server::threaded::{Request, Response, ThreadedServer};
use corm_core::server::{CormServer, ServerConfig};
use corm_core::GlobalPtr;
use corm_sim_core::rng::{stream_rng, DetRng};
use corm_sim_core::time::{SimDuration, SimTime};
use corm_sim_rdma::rpc::{RpcClient, RpcError};
use corm_trace::TraceHandle;
use corm_workloads::ycsb::{KeyDist, Mix, Op, Workload};

use super::{
    common_layers, jitter, populate, span_layers, verify_all, Counters, Finished, Layers, OpCosts,
    OpKind, Params, Virt, World,
};
use crate::oracle::Oracle;
use crate::probe::{Probe, Span};

const VALUE_LEN: usize = 32;
/// A call that has not returned by then counts as failed, and the run
/// stops issuing calls.
const CALL_TIMEOUT: Duration = Duration::from_secs(5);

/// The set-up workload.
pub struct Rpc {
    server: Arc<CormServer>,
    threaded: Option<ThreadedServer>,
    rpc: RpcClient<Request, Response>,
    ptrs: Vec<GlobalPtr>,
    oracle: Oracle,
    workload: Workload,
    rng: DetRng,
    jitter_rng: DetRng,
    payload: Vec<u8>,
    round_ops: u64,
    /// The client's virtual clock (one outstanding call).
    clock: SimTime,
    /// Wire time of a call beyond the worker's charge.
    wire: SimDuration,
    live_bytes: f64,
    timeouts: u64,
    virt: Virt,
    c0: Counters,
    costs: OpCosts,
}

/// Boots and loads the store, then starts the worker thread.
pub fn setup(p: Params, trace: TraceHandle) -> Rpc {
    let objects = p.pick(1 << 16, 1 << 12) as u64;
    let config = ServerConfig { workers: 1, trace, ..ServerConfig::default() };
    let server = Arc::new(CormServer::new(config));
    let oracle = Oracle::new(vec![VALUE_LEN as u16; objects as usize]);
    let ptrs = populate(&server, &oracle, 0..objects);
    let threaded = ThreadedServer::start(server.clone());
    let m = server.model();
    Rpc {
        rpc: threaded.rpc_client(),
        threaded: Some(threaded),
        wire: m.rpc_latency(VALUE_LEN).saturating_sub(m.rpc_worker_service),
        live_bytes: oracle.bytes_of(0..objects) as f64,
        c0: Counters::snapshot(&server),
        ptrs,
        oracle,
        workload: Workload::new(objects, KeyDist::Uniform, Mix::BALANCED),
        rng: stream_rng(p.seed, 0),
        jitter_rng: stream_rng(p.seed, 1),
        payload: Vec::with_capacity(VALUE_LEN),
        round_ops: p.pick(1 << 11, 1 << 9),
        clock: SimTime::ZERO,
        timeouts: 0,
        virt: Virt::default(),
        costs: OpCosts::default(),
        server,
    }
}

impl Rpc {
    /// Issues one call and returns its response plus the virtual cost the
    /// worker charged for it.
    fn call(
        &mut self,
        probe: &mut Probe,
        request: Request,
    ) -> (Result<Response, RpcError>, SimDuration) {
        let threaded = self.threaded.as_ref().expect("server running");
        let before = threaded.now();
        let rpc = &self.rpc;
        let resp = probe.time(Span::RpcCall, || rpc.call_timeout(request, CALL_TIMEOUT));
        (resp, threaded.now().saturating_since(before))
    }
}

impl World for Rpc {
    fn round(&mut self, rec: bool, probe: &mut Probe) -> u64 {
        let mut issued = 0;
        for _ in 0..self.round_ops {
            if self.timeouts > 0 {
                break;
            }
            issued += 1;
            let now = self.clock;
            let op = probe.time(Span::Draw, || self.workload.next_op(&mut self.rng));
            if rec {
                self.virt.op(now, op.key(), 1);
            }
            let key = op.key();
            let ptr = self.ptrs[key as usize];
            let (resp, cost) = match op {
                Op::Read(_) => self.call(probe, Request::Read { ptr, len: VALUE_LEN }),
                Op::Write(_) => {
                    let version = self.oracle.version(key) + 1;
                    self.oracle.payload_into(&mut self.payload, key, version);
                    let data = self.payload.clone();
                    let r = self.call(probe, Request::Write { ptr, data });
                    if let (Ok(Response::Done(_)), _) = &r {
                        self.oracle.set_version(key, version);
                    }
                    r
                }
            };
            let j = jitter(&mut self.jitter_rng);
            let latency = cost + self.wire + j.dur;
            let hist = match resp {
                Ok(Response::Data { ptr, data }) => {
                    self.oracle.check(key, &data);
                    self.ptrs[key as usize] = ptr;
                    self.costs.add(OpKind::Read, cost);
                    Some(&mut self.virt.reads)
                }
                Ok(Response::Done(ptr)) => {
                    self.oracle.ok();
                    self.ptrs[key as usize] = ptr;
                    self.costs.add(OpKind::Write, cost);
                    Some(&mut self.virt.writes)
                }
                Ok(other) => {
                    self.oracle.fail(|| format!("key {key}: unexpected reply {other:?}"));
                    None
                }
                Err(e) => {
                    if e == RpcError::Timeout {
                        self.timeouts += 1;
                    }
                    self.oracle.fail(|| format!("call on key {key}: {e}"));
                    None
                }
            };
            if let (true, Some(hist)) = (rec, hist) {
                j.record(hist, latency);
            }
            self.clock = now + latency;
        }
        if rec {
            self.virt.mem.push(self.server.active_bytes() as f64 / self.live_bytes);
        }
        issued
    }

    fn virt(&self) -> &Virt {
        &self.virt
    }

    fn end(&mut self) {
        // Joining the worker flushes its share of the in-program trace.
        if let Some(threaded) = self.threaded.take() {
            threaded.shutdown();
        }
    }

    fn finish(mut self: Box<Self>, probe: Option<&Probe>) -> Finished {
        self.end();
        let layers = probe.map(|probe| {
            let mut out = Layers::new();
            let draws = span_layers(probe, 0, 0, &mut out);
            let (p50, p99) = probe.rtt_p50_p99();
            out.insert("rpc.call_rtt_ns_p50", p50);
            out.insert("rpc.call_rtt_ns_p99", p99);
            out.insert("rpc.timeouts", self.timeouts as f64);
            self.costs.layers(probe, &mut out);
            common_layers(&self.server, &self.c0, draws, self.clock, &mut out);
            out
        });
        let mut client = CormClient::connect(self.server.clone());
        let keys = 0..self.ptrs.len() as u64;
        verify_all(&self.server, &mut client, &mut self.ptrs, &mut self.oracle, keys, self.clock);
        Finished { oracle: self.oracle, layers }
    }
}
