//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a detail line (provenance, sample counts, fingerprints) and, as
//! the last line, `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! when a check fails and 2 on a usage error.

use std::process::ExitCode;

use corm_perfbench::json::Obj;
use corm_perfbench::provenance;
use corm_perfbench::run::{run, Run};
use corm_perfbench::spec::{self, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <1..=600> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match spec::workload(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if (1.0..=600.0).contains(&s) => seconds = s,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value}")),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let pinned = provenance::pin_one_cpu();
    let report = run(&Run { workload, seed, seconds, trace, smoke: false });
    let detail = report.detail.clone().obj("provenance", provenance::collect(pinned));
    println!("{}", Obj::new().obj("perfbench", detail).render());
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
