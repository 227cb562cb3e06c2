//! One benchmark run: set the workload up several times, measure it with
//! tracing off, and — in a traced run — measure it again with every span
//! and the in-program recorder on, then reconcile the two.

use std::time::{Duration, Instant};

use corm_trace::TraceHandle;

use crate::json::Obj;
use crate::probe::{ratio, Probe};
use crate::spec::{WorkloadSpec, END_TO_END, PER_LAYER};
use crate::world::{self, Finished, Layers, Params, StageTally, World};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// A traced run passes when its wall time, which equals the layer spans
/// plus `driver.self_ns`, is within this share of the untraced run's wall
/// time. Spans around sub-microsecond calls (a queue pop, a key draw)
/// cost about as much as the call, so a traced `ycsb_b_direct` segment
/// measured 1.6–2.1× the untraced one on a shared 2-CPU host.
pub const RECONCILE_BAND: f64 = 2.0;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// The workload.
    pub workload: &'static WorkloadSpec,
    /// Seed of every input stream.
    pub seed: u64,
    /// Wall seconds the untraced measurement lasts (at least the recorded
    /// rounds).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The small self-test version.
    pub smoke: bool,
}

/// A finished run's report.
#[derive(Debug)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Client operations attempted (measured and verified).
    pub attempted: u64,
    /// Of those, failed, refused, timed-out or wrong.
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Virtual results' digest (equal across same-seed runs).
    pub virt_fingerprint: u64,
    /// Drawn key stream's digest.
    pub keys_fingerprint: u64,
    /// Everything else worth keeping, as one JSON object.
    pub detail: Obj,
}

impl Report {
    /// The last line the benchmark prints.
    pub fn result_line(&self) -> String {
        let mut metrics = Obj::new();
        for &(name, value, unit) in &self.metrics {
            metrics = metrics.obj(name, Obj::new().num("value", value).str("unit", unit));
        }
        Obj::new()
            .bool("correct", self.correct)
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .obj("metrics", metrics)
            .render()
    }

    /// Value of the metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Rounds whose virtual results are recorded, after one warm-up round.
fn recorded_rounds(workload: &str, smoke: bool) -> usize {
    match (workload, smoke) {
        (_, true) => 2,
        ("ycsb_b_direct", _) => 16,
        ("churn_compact", _) => 4,
        ("tiered_multiget", _) => 120,
        _ => 24,
    }
}

fn setup(run: &Run, trace: TraceHandle) -> Box<dyn World> {
    let p = Params { seed: run.seed, smoke: run.smoke };
    match run.workload.name {
        "ycsb_b_direct" => Box::new(world::ycsb::setup(p, trace)),
        "churn_compact" => Box::new(world::churn::setup(p, trace)),
        "tiered_multiget" => Box::new(world::tiered::setup(p, trace)),
        "rpc_threaded" => Box::new(world::rpc::setup(p, trace)),
        other => unreachable!("unknown workload {other}"),
    }
}

fn timed_setup(run: &Run, trace: TraceHandle, times: &mut Vec<f64>) -> Box<dyn World> {
    let t0 = Instant::now();
    let w = setup(run, trace);
    times.push(t0.elapsed().as_secs_f64());
    w
}

/// A measured pass over one world: the warm-up round, the recorded
/// rounds, then (with a deadline) unrecorded rounds until it passes.
struct Pass {
    /// Client ops per wall second of each round after the warm-up.
    rates: Vec<f64>,
    /// Wall time inside the warm-up and recorded rounds (what runs
    /// between rounds, such as draining the recorder, is left out).
    segment: Duration,
    /// Peak RSS once the recorded rounds are done, before the
    /// deadline-bound rounds whose number depends on the host's speed.
    peak_rss_mib: f64,
}

fn measure(
    w: &mut dyn World,
    probe: &mut Probe,
    recorded: usize,
    deadline: Option<Instant>,
    mut after_round: impl FnMut(),
) -> Pass {
    let t0 = Instant::now();
    w.round(false, probe);
    let mut segment = t0.elapsed();
    after_round();
    let mut rates = Vec::new();
    let mut peak_rss_mib = 0.0;
    for round in 1.. {
        let rec = round <= recorded;
        if !rec && deadline.is_none_or(|d| Instant::now() >= d) {
            break;
        }
        let t0 = Instant::now();
        let ops = w.round(rec, probe);
        let took = t0.elapsed();
        rates.push(ops as f64 / took.as_secs_f64());
        if rec {
            segment += took;
        }
        if round == recorded {
            peak_rss_mib = self::peak_rss_mib();
        }
        after_round();
    }
    Pass { rates, segment, peak_rss_mib }
}

fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.75))
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs the benchmark once.
pub fn run(run: &Run) -> Report {
    let recorded = recorded_rounds(run.workload.name, run.smoke);
    let mut setups = Vec::new();
    let mut notes: Vec<String> = Vec::new();

    // The measured run, tracing off.
    let mut w = timed_setup(run, TraceHandle::disabled(), &mut setups);
    let mut probe = Probe::new(false);
    let deadline = (!run.trace).then(|| Instant::now() + Duration::from_secs_f64(run.seconds));
    let pass = measure(w.as_mut(), &mut probe, recorded, deadline, || {});
    let v = w.virt();
    let fp = v.fingerprint();
    let keys_fp = v.keys_fp;
    let lat = |h: &corm_sim_core::stats::Histogram, q: f64| h.quantile(q).unwrap_or(0.0);
    let e2e = [
        v.kreqs(),
        lat(&v.reads, 0.5),
        lat(&v.reads, 0.999),
        lat(&v.writes, 0.5),
        lat(&v.writes, 0.999),
        v.mem_per_live_byte(),
        median(&pass.rates),
    ];
    for (what, n) in [("read", v.reads.len()), ("write", v.writes.len())] {
        if n < 10_000 && !run.smoke {
            notes.push(format!("only {n} {what} samples: p99.9 needs at least 10000"));
        }
    }
    let (q1, q3) = quartiles(&pass.rates);
    let samples = Obj::new()
        .num("read_samples", v.reads.len() as f64)
        .num("write_samples", v.writes.len() as f64)
        .num("during_compaction_samples", v.during.len() as f64)
        .num("read_p99_during_compaction_us", lat(&v.during, 0.99))
        .num("rounds", pass.rates.len() as f64 + 1.0)
        .num("round_rate_q1", q1)
        .num("round_rate_q3", q3);
    let Finished { oracle, .. } = w.finish(None);
    let mut attempted = oracle.attempted;
    let mut failed = oracle.failed;
    let mut first_failure = oracle.first_failure;

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if run.trace {
        // The traced run: same seed, every span and the recorder on.
        let trace = TraceHandle::recording();
        let mut w = timed_setup(run, trace.clone(), &mut setups);
        let mut stages = StageTally::start(trace);
        let mut probe = Probe::new(true);
        // The recorder is drained between rounds, outside the timed segment.
        let traced = measure(w.as_mut(), &mut probe, recorded, None, || stages.absorb());
        w.end();
        stages.absorb();
        let mut stage_metrics = Layers::new();
        stages.layers(&mut stage_metrics);
        if stages.dropped() > 0 {
            notes.push(format!("the in-program recorder dropped {} events", stages.dropped()));
        }
        let v = w.virt();
        if v.fingerprint() != fp {
            notes.push("traced virtual results differ from the untraced run".into());
        }
        let during_p99 = lat(&v.during, 0.99);
        let Finished { oracle, layers } = w.finish(Some(&probe));
        attempted += oracle.attempted;
        failed += oracle.failed;
        first_failure = first_failure.or(oracle.first_failure);
        let mut layers: Layers = layers.expect("traced finish reports layers");
        layers.append(&mut stage_metrics);
        let wall_t = traced.segment.as_nanos() as f64;
        let wall_u = pass.segment.as_nanos() as f64;
        let self_ns = wall_t - probe.total_ns() as f64;
        let overhead = ratio(wall_t, wall_u) - 1.0;
        // Self-test segments last milliseconds, too short for a wall-time
        // band; they check only that the spans do not overlap.
        if self_ns < 0.0 || (!run.smoke && overhead.abs() > RECONCILE_BAND) {
            notes.push(format!(
                "reconciliation failed: spans {} ns + self {self_ns} ns vs untraced {wall_u} ns (band {RECONCILE_BAND})",
                probe.total_ns()
            ));
        }
        layers.insert("driver.self_ns", self_ns);
        layers.insert("driver.trace_overhead_frac", overhead);
        layers.insert("compaction.read_p99_during_us", during_p99);
        for m in PER_LAYER {
            let value = layers.remove(m.name).unwrap_or(0.0);
            metrics.push((m.name, value, m.unit));
        }
        for stray in layers.keys() {
            notes.push(format!("undeclared layer metric {stray}"));
        }
    } else {
        let setup_s = {
            // The remaining set-ups, timed and dropped.
            while setups.len() < SETUPS {
                drop(timed_setup(run, TraceHandle::disabled(), &mut setups));
            }
            median(&setups)
        };
        let values = e2e.iter().copied().chain([setup_s, pass.peak_rss_mib]);
        for (m, value) in END_TO_END.iter().zip(values) {
            metrics.push((m.name, value, m.unit));
        }
    }

    for &(name, value, _) in &metrics {
        if !value.is_finite() {
            notes.push(format!("metric {name} is not finite"));
        }
    }
    let correct = failed == 0 && notes.is_empty();
    let detail = Obj::new()
        .str("workload", run.workload.name)
        .num("seed", run.seed as f64)
        .bool("trace", run.trace)
        .str("virtual_fingerprint", &format!("{fp:016x}"))
        .str("key_stream_fingerprint", &format!("{keys_fp:016x}"))
        .obj("samples", samples)
        .num("failed_op_frac", ratio(failed as f64, attempted as f64))
        .num("setup_runs", setups.len() as f64)
        .num("reconcile_band", RECONCILE_BAND)
        .str("first_failure", first_failure.as_deref().unwrap_or(""))
        .str("notes", &notes.join("; "));
    Report {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
        virt_fingerprint: fp,
        keys_fingerprint: keys_fp,
        detail,
    }
}
