//! Self-tests: a short version of every workload, run untraced and traced,
//! must emit every metric `BENCHMARK.json` declares, with its unit, and
//! pass every check; same-seed runs must repeat their virtual results
//! exactly while another seed changes the key streams.

use corm_perfbench::json::{parse, Value};
use corm_perfbench::run::{run, Report, Run};
use corm_perfbench::spec::{self, Metric, END_TO_END, LAYERS, PER_LAYER, WORKLOADS};

fn smoke(workload: &str, seed: u64, trace: bool) -> Report {
    let workload = spec::workload(workload).expect("declared workload");
    let report = run(&Run { workload, seed, seconds: 0.0, trace, smoke: true });
    assert!(
        report.correct,
        "{} seed {seed} trace {trace}: {}",
        workload.name,
        report.detail.render()
    );
    assert_eq!(report.failed, 0);
    report
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing string {key} in {v:?}"))
}

fn check_declared(list: &Value, expected: &[Metric]) {
    let list = list.as_arr().expect("metric list");
    assert_eq!(list.len(), expected.len());
    for (entry, m) in list.iter().zip(expected) {
        assert_eq!(str_of(entry, "name"), m.name);
        assert_eq!(str_of(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(str_of(entry, "better"), m.better.as_str(), "{}", m.name);
        assert_eq!(entry.get("bound").and_then(Value::as_f64), m.bound, "{}", m.name);
    }
}

#[test]
fn benchmark_json_matches_the_spec() {
    let b = benchmark_json();
    let Value::Obj(top) = &b else { panic!("BENCHMARK.json is not an object") };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    let workloads = b.get("workloads").and_then(Value::as_arr).expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(str_of(entry, "name"), w.name);
        assert_eq!(str_of(entry, "why"), w.why, "the why of {} is recorded in both places", w.name);
        assert!(!w.why.is_empty() && w.why.len() <= 200);
    }
    check_declared(b.get("end_to_end").expect("end_to_end"), END_TO_END);
    check_declared(b.get("per_layer").expect("per_layer"), PER_LAYER);
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn every_layer_metric_maps_to_an_end_to_end_effect() {
    for m in PER_LAYER {
        let layer = m.name.split('.').next().expect("layer prefix");
        let map = LAYERS.iter().find(|l| l.layer == layer);
        assert!(map.is_some_and(|l| !l.moves.is_empty()), "{} has no layer map entry", m.name);
    }
    for l in LAYERS {
        assert!(
            PER_LAYER.iter().any(|m| m.name.starts_with(&format!("{}.", l.layer))),
            "layer {} has no metric",
            l.layer
        );
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in WORKLOADS {
        for (trace, declared) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = smoke(w.name, 3, trace);
            let names: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.0, m.2)).collect();
            let expected: Vec<(&str, &str)> = declared.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(names, expected, "{} trace {trace}", w.name);
            for &(name, value, _) in &report.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", w.name);
                if !trace {
                    assert!(value > 0.0, "end-to-end metric {name} is 0 on {}", w.name);
                }
            }
            let line = parse(&report.result_line()).expect("result line is JSON");
            let Value::Obj(top) = &line else { panic!("result line is not an object") };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert!(report.attempted >= 1);
        }
    }
}

#[test]
fn same_seed_repeats_virtual_results_and_another_seed_changes_keys() {
    const VIRTUAL: &[&str] = &[
        "throughput_kreqs",
        "read_p50_us",
        "read_p999_us",
        "write_p50_us",
        "write_p999_us",
        "mem_per_live_byte",
    ];
    for w in WORKLOADS {
        let a = smoke(w.name, 7, false);
        let b = smoke(w.name, 7, false);
        let c = smoke(w.name, 8, false);
        assert_eq!(
            a.virt_fingerprint, b.virt_fingerprint,
            "{}: same seed, same virtual results",
            w.name
        );
        for name in VIRTUAL {
            assert_eq!(
                a.metric(name).map(f64::to_bits),
                b.metric(name).map(f64::to_bits),
                "{} {name} must repeat bit for bit",
                w.name
            );
        }
        assert_eq!(a.keys_fingerprint, b.keys_fingerprint);
        assert_ne!(a.keys_fingerprint, c.keys_fingerprint, "{}: another seed, other keys", w.name);
        assert_ne!(
            a.virt_fingerprint, c.virt_fingerprint,
            "{}: another seed, other results",
            w.name
        );
    }
}
