//! Result presentation: aligned text tables, CSV files, and JSON metrics.
//!
//! Every figure binary prints a human-readable table mirroring the paper's
//! rows/series and writes the same data as CSV into `results/` so the
//! series can be plotted or diffed. Fault-injection runs additionally
//! export their counters as JSON (hand-rolled — the workspace builds
//! offline, without serde).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use corm_core::CompactionReport;
use corm_sim_core::stats::Histogram;
use corm_sim_core::time::SimTime;
use corm_sim_rdma::{FaultKind, QueuePair, Rnic};
use corm_trace::{canonical_lines, perfetto_json, validate_perfetto, Event, TraceHandle};

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(s, "{:>w$}  ", cell, w = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// CSV form (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ =
            writeln!(out, "{}", self.header.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// Directory the harness writes CSVs to (created on demand): `results/`
/// next to the workspace root, or the current directory as a fallback.
pub fn results_dir() -> PathBuf {
    let candidates = [Path::new("results"), Path::new("../results"), Path::new("../../results")];
    for c in candidates {
        if c.parent().map(|p| p.exists()).unwrap_or(true) && c.exists() {
            return c.to_path_buf();
        }
    }
    PathBuf::from("results")
}

/// Writes a table's CSV under `results/<name>.csv` and returns the path.
pub fn write_csv(name: &str, table: &Table) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// A JSON value (the subset the metrics exports need).
#[derive(Debug, Clone)]
pub enum Json {
    /// A boolean.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A float (rendered with enough precision to round-trip).
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered fields.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serializes the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builder for a JSON object with insertion-ordered fields.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, Json)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Adds any JSON value.
    pub fn field(mut self, key: &str, value: Json) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds an unsigned integer.
    pub fn uint(self, key: &str, value: u64) -> Self {
        self.field(key, Json::UInt(value))
    }

    /// Adds a float.
    pub fn float(self, key: &str, value: f64) -> Self {
        self.field(key, Json::Float(value))
    }

    /// Adds a string.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(key, Json::Str(value.to_string()))
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

/// The canonical name of a fault kind in exports.
pub fn fault_kind_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Transient => "transient",
        FaultKind::DelaySpike => "delay_spike",
        FaultKind::CacheMiss => "cache_miss",
        FaultKind::QpBreak => "qp_break",
    }
}

/// Snapshot of a NIC's fault-injection counters and the client's recovery
/// counters as a JSON object, including the replayable fault log.
pub fn fault_metrics(
    rnic: &Rnic,
    qp_breaks: u64,
    qp_reconnects: u64,
    client_recoveries: u64,
) -> Json {
    use std::sync::atomic::Ordering::Relaxed;
    let s = &rnic.stats;
    let log: Vec<Json> = rnic
        .fault_log()
        .into_iter()
        .map(|(op, kind)| {
            JsonObject::new().uint("op", op).str("kind", fault_kind_name(kind)).build()
        })
        .collect();
    JsonObject::new()
        .uint("injected_faults", s.injected_faults.load(Relaxed))
        .uint("injected_qp_breaks", s.injected_qp_breaks.load(Relaxed))
        .uint("injected_delays", s.injected_delays.load(Relaxed))
        .uint("injected_delay_ns", s.injected_delay_ns.load(Relaxed))
        .uint("forced_cache_misses", s.forced_cache_misses.load(Relaxed))
        .uint("qp_breaks", qp_breaks)
        .uint("qp_reconnects", qp_reconnects)
        .uint("client_recoveries", client_recoveries)
        .field("fault_log", Json::Arr(log))
        .build()
}

/// Snapshot of the NIC inbound verb engine and a QP's queue-depth
/// counters as a JSON object — exported next to `fault_metrics` so runs
/// can correlate batching behaviour with fault/recovery activity.
///
/// `elapsed` is the virtual-time horizon the run covered (its final clock
/// minus its starting clock); utilization is engine busy time over that
/// window.
pub fn engine_metrics(rnic: &Rnic, qp: &QueuePair, elapsed: SimTime) -> Json {
    use corm_sim_rdma::TrafficClass;
    use std::sync::atomic::Ordering::Relaxed;
    let s = &rnic.stats;
    let d = qp.depth_stats();
    let qos_admitted = rnic.qos_class_admitted();
    let qos_wait = rnic.qos_class_wait_ns();
    // One row per traffic class: queue depth and postings seen by this QP
    // plus the scheduler's admissions/imposed wait on the NIC side (zeros
    // with QoS off).
    let classes = Json::Arr(
        TrafficClass::ALL
            .iter()
            .map(|c| {
                JsonObject::new()
                    .str("class", c.name())
                    .uint("posted", d.class_posted[c.index()])
                    .uint("sq_depth_max", d.class_sq_depth_max[c.index()])
                    .uint("qos_admitted", qos_admitted[c.index()])
                    .uint("qos_wait_ns", qos_wait[c.index()])
                    .build()
            })
            .collect(),
    );
    let mut obj = JsonObject::new()
        .uint("doorbells", s.doorbells.load(Relaxed))
        .uint("wqes", s.wqes.load(Relaxed))
        .uint("engine_admitted", rnic.engine_admitted())
        .uint("engine_busy_ns", rnic.engine_busy().as_nanos())
        .float("engine_utilization", rnic.engine_utilization(elapsed))
        .uint("qp_posted", d.posted)
        .uint("qp_completed", d.completed)
        .uint("qp_doorbells", d.doorbells)
        .uint("sq_depth_max", d.sq_depth_max)
        .uint("cq_depth_max", d.cq_depth_max)
        .field("qos_enabled", Json::Bool(rnic.qos_enabled()))
        .field("classes", classes)
        .uint("qp_state_bytes", qp.state_bytes() as u64);
    // With a far tier attached, append residency gauges and the tier's
    // traffic counters so oversubscription runs export both sides of the
    // fault path: what the NIC saw (pin faults, hard misses) and what the
    // tier moved (spills/fetches with byte volumes).
    if let Some(tier) = rnic.tier() {
        let res = rnic.aspace().phys().residency_counts();
        let t = tier.stats();
        obj = obj.field(
            "tiering",
            JsonObject::new()
                .uint("frames_pinned", res.pinned)
                .uint("frames_resident", res.resident)
                .uint("frames_far", res.far)
                .uint("spills", t.spills)
                .uint("fetches", t.fetches)
                .uint("pin_faults", t.pin_faults)
                .uint("hard_misses", t.hard_misses)
                .uint("bytes_spilled", t.bytes_spilled)
                .uint("bytes_fetched", t.bytes_fetched)
                .uint("nic_pin_faults", s.pin_faults.load(Relaxed))
                .uint("nic_tier_fetches", s.tier_fetches.load(Relaxed))
                .uint("nic_hard_misses", s.hard_misses.load(Relaxed))
                .build(),
        );
    }
    obj.build()
}

/// Server-side tiering state — the pin-budget manager's eviction and heat
/// counters — as a JSON object, exported next to [`engine_metrics`] (which
/// covers the NIC/tier side) by oversubscription runs. Returns an empty
/// object when the server runs without a pin budget.
pub fn tier_metrics(server: &corm_core::CormServer) -> Json {
    let Some(t) = server.tiering() else {
        return JsonObject::new().build();
    };
    let histogram = Json::Arr(t.heat_histogram().into_iter().map(Json::UInt).collect());
    JsonObject::new()
        .uint("pin_budget_frames", t.budget() as u64)
        .uint("evictions", t.evictions())
        .field("heat_histogram", histogram)
        .build()
}

/// Writes a JSON document under `results/<name>.json` and returns the path.
pub fn write_json(name: &str, json: &Json) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, json.render())?;
    Ok(path)
}

/// Median of a latency histogram, `0.0` when empty. The figure binaries
/// record latencies in microseconds, so this is the paper's "median µs"
/// column; it is the one shared quantile helper the binaries use instead
/// of per-binary `median().unwrap()` copies.
pub fn median_us(h: &Histogram) -> f64 {
    h.median().unwrap_or(0.0)
}

/// Throughput in kreq/s implied by a median latency recorded in µs
/// (`0.0` when the histogram is empty).
pub fn kreqs_from_median(h: &Histogram) -> f64 {
    let m = median_us(h);
    if m > 0.0 {
        1e3 / m
    } else {
        0.0
    }
}

/// Throughput in Mreq/s implied by a median latency recorded in µs
/// (`0.0` when the histogram is empty).
pub fn mreqs_from_median(h: &Histogram) -> f64 {
    let m = median_us(h);
    if m > 0.0 {
        1.0 / m
    } else {
        0.0
    }
}

/// One compaction pass's [`CompactionReport`] as a JSON object, so the
/// compaction figures can export per-pass work and stage costs next to
/// their latency tables.
pub fn compaction_metrics(report: &CompactionReport) -> Json {
    // Pause chunks (the busy intervals between yields) as a latency
    // distribution: p50/p99 of how long serving is held off by the pass.
    let mut pauses = Histogram::new();
    for &chunk in &report.chunks {
        pauses.record_duration(chunk);
    }
    JsonObject::new()
        .uint("class", u64::from(report.class.0))
        .uint("collected", report.collected as u64)
        .uint("merges", report.merges as u64)
        .uint("blocks_freed", report.blocks_freed as u64)
        .uint("objects_relocated", report.objects_relocated as u64)
        .uint("objects_copied", report.objects_copied as u64)
        .float("collection_us", report.collection_cost.as_micros_f64())
        .float("compaction_us", report.compaction_cost.as_micros_f64())
        .float("total_us", report.total_cost().as_micros_f64())
        .uint("lanes", report.lanes as u64)
        .uint("yields", report.yields as u64)
        .uint("extra_remaps", report.extra_remaps)
        .uint("mtt_batches", report.mtt_batches)
        .float("pause_p50_us", pauses.median().unwrap_or(0.0))
        .float("pause_p99_us", pauses.p99().unwrap_or(0.0))
        .build()
}

/// Snapshot of a trace handle's aggregate metrics — counters, virtual
/// duration totals, and wall-clock totals per stage — as one JSON object.
/// This is the single schema that subsumes the ad-hoc per-binary metric
/// exports: binaries attach it next to `engine_metrics`/`fault_metrics`.
pub fn trace_counters(trace: &TraceHandle) -> Json {
    let counters = Json::Obj(
        trace.counters().into_iter().map(|(s, n)| (s.name().to_string(), Json::UInt(n))).collect(),
    );
    let totals = |rows: Vec<corm_trace::StageTotal>| {
        Json::Arr(
            rows.into_iter()
                .map(|t| {
                    JsonObject::new()
                        .str("stage", t.stage.name())
                        .uint("count", t.count)
                        .uint("total_ns", t.total_ns)
                        .build()
                })
                .collect(),
        )
    };
    JsonObject::new()
        .field("counters", counters)
        .field("virtual_stage_totals", totals(trace.sample_totals()))
        .field("wall_stage_totals", totals(trace.wall_totals()))
        .uint("dropped_events", trace.dropped())
        .build()
}

/// Drains a recording trace handle and writes its artifacts under
/// `results/`: `<name>.trace.json` (Perfetto/chrome-tracing JSON, checked
/// with [`validate_perfetto`]) and `<name>.events` (canonical event lines
/// for `trace_diff`). Prints the per-stage latency breakdown and asserts
/// that per-op leaf spans reconcile with op totals. Returns the drained
/// events so callers can run further checks on them.
pub fn write_trace_artifacts(name: &str, trace: &TraceHandle) -> std::io::Result<Vec<Event>> {
    let events = trace.drain();
    let dir = results_dir();
    fs::create_dir_all(&dir)?;

    let perfetto = perfetto_json(&events);
    let n = validate_perfetto(&perfetto)
        .unwrap_or_else(|e| panic!("emitted Perfetto JSON for {name} is invalid: {e}"));
    let trace_path = dir.join(format!("{name}.trace.json"));
    fs::write(&trace_path, &perfetto)?;
    let events_path = dir.join(format!("{name}.events"));
    fs::write(&events_path, canonical_lines(&events))?;

    let recon = corm_trace::reconcile(&events);
    assert!(
        recon.is_clean(),
        "{name}: {}/{} traced ops do not reconcile (max error {} ns)",
        recon.mismatched,
        recon.ops,
        recon.max_error_ns
    );
    if trace.dropped() > 0 {
        eprintln!("warning: {name} dropped {} trace events (buffers full)", trace.dropped());
    }
    print!("{}", corm_trace::render_breakdown(&corm_trace::breakdown(&events)));
    println!(
        "trace: {} events -> {} ({} Perfetto spans), {}",
        events.len(),
        trace_path.display(),
        n,
        events_path.display()
    );
    Ok(events)
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats bytes as GiB with 3 decimals.
pub fn gib(bytes: u64) -> String {
    format!("{:.3}", bytes as f64 / (1u64 << 30) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["he,llo".into(), "quo\"te".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"he,llo\""));
        assert!(csv.contains("\"quo\"\"te\""));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        Table::new("x", &["a"]).row(&["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(gib(1 << 30), "1.000");
    }

    #[test]
    fn json_renders_nested_structures() {
        let j = JsonObject::new()
            .uint("ops", 1000)
            .float("rate", 0.5)
            .str("name", "sweep")
            .field("flags", Json::Bool(true))
            .field(
                "log",
                Json::Arr(vec![JsonObject::new().uint("op", 3).str("kind", "qp_break").build()]),
            )
            .build();
        assert_eq!(
            j.render(),
            r#"{"ops":1000,"rate":0.5,"name":"sweep","flags":true,"log":[{"op":3,"kind":"qp_break"}]}"#
        );
    }

    #[test]
    fn json_escapes_strings() {
        let j = Json::Str("a\"b\\c\nd".into());
        assert_eq!(j.render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn engine_metrics_snapshot_counts_batch_activity() {
        use std::sync::Arc;

        use corm_sim_mem::{AddressSpace, PhysicalMemory};
        use corm_sim_rdma::{ReadReq, RnicConfig};

        let pm = Arc::new(PhysicalMemory::new());
        let frames = pm.alloc_n(1).unwrap();
        let aspace = Arc::new(AddressSpace::new(pm));
        let va = aspace.mmap(&frames).unwrap();
        let rnic = Arc::new(Rnic::new(aspace.clone(), RnicConfig::default()));
        let (mr, _) = rnic.register(va, 1, false).unwrap();
        aspace.write(va, &[9u8; 128]).unwrap();

        let qp = QueuePair::connect(rnic.clone());
        let reqs: Vec<ReadReq> =
            (0..4u64).map(|i| ReadReq::new(i, mr.rkey, va + i * 32, 32)).collect();
        let mut results = Vec::new();
        qp.read_batch_into(&reqs, &mut vec![Vec::new(); 4], SimTime::ZERO, &mut results);
        let end = results.iter().map(|r| r.completed_at).max().unwrap();

        let j = engine_metrics(&rnic, &qp, end).render();
        assert!(j.contains("\"doorbells\":1"), "{j}");
        assert!(j.contains("\"wqes\":4"), "{j}");
        assert!(j.contains("\"engine_admitted\":4"), "{j}");
        assert!(j.contains("\"qp_posted\":4"), "{j}");
        assert!(j.contains("\"sq_depth_max\":4"), "{j}");
        assert!(j.contains("\"engine_utilization\":0."), "{j}");
        // Per-class breakdown: the 4 untagged reads ride the latency class;
        // QoS is off so scheduler admissions/waits are zero.
        assert!(j.contains("\"qos_enabled\":false"), "{j}");
        assert!(j.contains(r#"{"class":"latency","posted":4,"sq_depth_max":4"#), "{j}");
        assert!(j.contains(r#"{"class":"bulk","posted":0"#), "{j}");
        assert!(j.contains(r#"{"class":"sync","posted":0"#), "{j}");
        assert!(j.contains("\"qp_state_bytes\":"), "{j}");
    }

    #[test]
    fn fault_kind_names_are_stable() {
        assert_eq!(fault_kind_name(FaultKind::Transient), "transient");
        assert_eq!(fault_kind_name(FaultKind::DelaySpike), "delay_spike");
        assert_eq!(fault_kind_name(FaultKind::CacheMiss), "cache_miss");
        assert_eq!(fault_kind_name(FaultKind::QpBreak), "qp_break");
    }
}
