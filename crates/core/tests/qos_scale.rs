//! QoS-scheduler and shared-connection replay pins.
//!
//! Three invariants guard the QoS/mux machinery:
//!
//! 1. **Uniform QoS is invisible**: a seeded run with an equal-weights
//!    [`QosConfig`] (which builds no scheduler) is byte-identical — costs,
//!    payloads, *and* the traced event stream — to the same run with QoS
//!    off. Enabling the feature without skewing weights cannot perturb any
//!    pinned replay.
//! 2. **Sharing replay identity**: a client sharing its connection with
//!    idle tenants replays a seeded faulty workload byte-for-byte like the
//!    connection's sole tenant — other tenants' slots never change what
//!    reaches the NIC.
//! 3. **Shared-connection recovery**: a QP break on a [`MuxQp`] fails all
//!    tenants, and every client recovers through its ordinary backoff
//!    path; the first reconnect heals the connection for everyone.

use std::sync::Arc;

use corm_core::client::CormClient;
use corm_core::server::{CormServer, ServerConfig};
use corm_core::GlobalPtr;
use corm_sim_core::time::SimTime;
use corm_sim_rdma::{
    FaultConfig, FaultKind, MuxQp, QosConfig, QueuePair, RnicConfig, ScheduledFault,
};
use corm_trace::{diff_events, TraceHandle};

const SIZE: usize = 48;
const OBJECTS: usize = 48;
const OPS: usize = 160;

fn populate(config: ServerConfig) -> (Arc<CormServer>, Vec<GlobalPtr>) {
    let server = Arc::new(CormServer::new(config));
    let mut client = CormClient::connect(server.clone());
    let mut ptrs = Vec::with_capacity(OBJECTS);
    let payload = vec![3u8; SIZE];
    for _ in 0..OBJECTS {
        let mut ptr = client.alloc(SIZE).expect("alloc").value;
        client.write(&mut ptr, &payload).expect("write");
        ptrs.push(ptr);
    }
    (server, ptrs)
}

fn faulty_config(trace: TraceHandle, qos: Option<QosConfig>) -> ServerConfig {
    let faults = FaultConfig {
        seed: 0xFEED,
        transient_prob: 0.02,
        delay_prob: 0.04,
        cache_miss_prob: 0.04,
        qp_break_prob: 0.01,
        ..FaultConfig::default()
    };
    ServerConfig {
        rnic: RnicConfig { faults: Some(faults), ..RnicConfig::default() },
        qos,
        trace,
        ..ServerConfig::default()
    }
}

/// Batched multi-get workload under seeded faults. With `idle_tenants`
/// of zero the client is its connection's sole tenant; otherwise it
/// shares a [`MuxQp`] with that many idle tenants, half attached before it
/// and half after. Returns per-batch costs and the payloads — the replay
/// fingerprint.
fn run_batched(config: ServerConfig, idle_tenants: usize) -> (Vec<u64>, Vec<Vec<u8>>) {
    let (server, ptrs) = populate(config);
    let mut client = if idle_tenants == 0 {
        CormClient::connect(server.clone())
    } else {
        let shared = MuxQp::connect(server.rnic().clone(), idle_tenants + 1);
        let before: Vec<_> = (0..idle_tenants / 2).map(|_| shared.attach()).collect();
        let client = CormClient::connect_mux(server.clone(), shared.attach().expect("attach"));
        let after: Vec<_> = (before.len()..idle_tenants).map(|_| shared.attach()).collect();
        assert!(before.iter().chain(&after).all(Option::is_some));
        assert_eq!(shared.tenants(), idle_tenants + 1);
        client
    };
    let keys: Vec<usize> = {
        let mut rng = corm_sim_core::rng::stream_rng(21, 5);
        (0..OPS).map(|_| rand::Rng::gen_range(&mut rng, 0..OBJECTS)).collect()
    };
    let mut costs = Vec::new();
    let mut payloads = Vec::new();
    let mut clock = SimTime::ZERO;
    for chunk in keys.chunks(8) {
        let mut bptrs: Vec<GlobalPtr> = chunk.iter().map(|&k| ptrs[k]).collect();
        let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; SIZE]; chunk.len()];
        let t = client.read_batch(&mut bptrs, &mut bufs, clock).expect("batch");
        costs.push(t.cost.as_nanos());
        payloads.extend(bufs);
        clock += t.cost;
    }
    (costs, payloads)
}

#[test]
fn uniform_qos_replays_byte_identically_to_qos_off() {
    let t_off = TraceHandle::recording();
    let off = run_batched(faulty_config(t_off.clone(), None), 0);
    let t_on = TraceHandle::recording();
    let on = run_batched(faulty_config(t_on.clone(), Some(QosConfig::equal_weights())), 0);
    assert_eq!(off.0, on.0, "per-batch costs must be identical with uniform QoS");
    assert_eq!(off.1, on.1, "payloads must be identical with uniform QoS");
    // A uniform config runs no scheduler, so not even the trace stream may
    // differ (no QosClassWait spans).
    let (e_off, e_on) = (t_off.drain(), t_on.drain());
    assert!(!e_off.is_empty());
    let d = diff_events(&e_off, &e_on);
    assert!(d.is_clean(), "uniform QoS must not perturb the event stream:\n{}", d.describe());
}

#[test]
fn sole_tenant_replays_byte_identically_to_one_sharing_with_idle_tenants() {
    let sole = run_batched(faulty_config(TraceHandle::disabled(), None), 0);
    let shared = run_batched(faulty_config(TraceHandle::disabled(), None), 6);
    assert_eq!(sole.0, shared.0, "per-batch costs must be identical sole vs shared");
    assert_eq!(sole.1, shared.1, "payloads must be identical sole vs shared");
}

#[test]
fn sole_tenant_conn_state_is_its_qp_plus_the_mux_header() {
    let (server, _) = populate(ServerConfig::default());
    let client = CormClient::connect(server);
    let header = std::mem::size_of::<MuxQp>() - std::mem::size_of::<QueuePair>();
    assert_eq!(client.conn_state_bytes(), client.qp().state_bytes() + header);
    // The QP itself: its struct plus send and completion rings at
    // provisioned depth (128 entries of 56 B and 80 B).
    assert_eq!(client.qp().state_bytes(), std::mem::size_of::<QueuePair>() + 17_408);
}

#[test]
fn qp_break_on_shared_connection_recovers_every_tenant() {
    // Script a break at an op index both tenants' traffic straddles; no
    // probabilistic faults so the test pins the recovery path exactly.
    let faults =
        FaultConfig::scripted(vec![ScheduledFault { at_op: 12, kind: FaultKind::QpBreak }]);
    let config = ServerConfig {
        rnic: RnicConfig { faults: Some(faults), ..RnicConfig::default() },
        ..ServerConfig::default()
    };
    let (server, ptrs) = populate(config);
    let shared = MuxQp::connect(server.rnic().clone(), 4);
    let mut clients: Vec<CormClient> = (0..3)
        .map(|_| CormClient::connect_mux(server.clone(), shared.attach().expect("attach")))
        .collect();
    let mut clock = SimTime::ZERO;
    let mut buf = vec![0u8; SIZE];
    // Interleave tenants so the scripted break lands mid-stream; every
    // read must succeed via each client's own recovery loop.
    for round in 0..8 {
        for (c, client) in clients.iter_mut().enumerate() {
            let mut ptr = ptrs[round * 3 + c];
            let t = client
                .direct_read_with_recovery(&mut ptr, &mut buf, clock)
                .expect("read must survive the shared break");
            assert_eq!(buf, vec![3u8; SIZE]);
            clock += t.cost;
        }
    }
    // The break fired, the connection healed exactly once, and at least
    // one tenant went through its recovery path.
    assert_eq!(shared.qp().breaks(), 1, "the scripted break must fire");
    assert_eq!(shared.qp().reconnects(), 1, "one reconnect heals all tenants");
    let recoveries: u64 = clients.iter().map(|c| c.qp_recoveries).sum();
    assert!(recoveries >= 1, "the broken tenant must recover via backoff");
}
