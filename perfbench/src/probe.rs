//! Wall-clock spans taken from outside the program: every call the
//! benchmark makes into a layer's public API can be wrapped in
//! [`Probe::time`]. Untraced runs pass a disabled probe, whose `time` is
//! a plain call.

use std::time::Instant;

use corm_sim_core::stats::Histogram;

/// The layer calls the benchmark times. Spans never nest: each wraps one
/// call from the benchmark's own loop, so their sum plus the driver's
/// self time is the traced run's wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `corm_workloads` key/op draw.
    Draw,
    /// `EventQueue::schedule` / `pop`.
    Queue,
    /// `CormClient::direct_read`.
    DirectRead,
    /// `CormClient::scan_read`.
    ScanRead,
    /// `CormClient::read_batch`.
    ReadBatch,
    /// `CormServer::read`.
    ServerRead,
    /// `CormServer::write`.
    ServerWrite,
    /// `CormServer::alloc`.
    ServerAlloc,
    /// `CormServer::free`.
    ServerFree,
    /// `CormServer::compact_if_fragmented`.
    Compaction,
    /// `CormServer::enforce_pin_budget`.
    Enforce,
    /// `CormServer::note_access`.
    NoteAccess,
    /// `RpcClient::call_timeout` into the threaded server.
    RpcCall,
}

impl Span {
    /// Number of spans.
    pub const COUNT: usize = 13;
}

/// Span accumulator.
#[derive(Debug, Default)]
pub struct Probe {
    on: bool,
    ns: [u64; Span::COUNT],
    calls: [u64; Span::COUNT],
    /// Per-call wall round trip of [`Span::RpcCall`], in ns.
    rtt_ns: Vec<f64>,
}

impl Probe {
    /// A probe that times (`on`) or only forwards calls.
    pub fn new(on: bool) -> Self {
        Probe { on, ..Probe::default() }
    }

    /// Runs `f`, charging its wall time to `span` when the probe is on.
    #[inline(always)]
    pub fn time<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.ns[span as usize] += ns;
        self.calls[span as usize] += 1;
        if span == Span::RpcCall {
            self.rtt_ns.push(ns as f64);
        }
        r
    }

    /// Total wall ns charged to `span`.
    pub fn ns(&self, span: Span) -> u64 {
        self.ns[span as usize]
    }

    /// Calls charged to `span`.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }

    /// Mean wall ns per call of `span` (0 when never called).
    pub fn mean_ns(&self, span: Span) -> f64 {
        ratio(self.ns(span) as f64, self.calls(span) as f64)
    }

    /// Sum of every span.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Median and 99th percentile of the recorded RPC round trips (ns).
    pub fn rtt_p50_p99(&self) -> (f64, f64) {
        let mut h = Histogram::new();
        h.reserve(self.rtt_ns.len());
        for &ns in &self.rtt_ns {
            h.record(ns);
        }
        h.quantiles(&[0.5, 0.99]).map_or((0.0, 0.0), |q| (q[0], q[1]))
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
