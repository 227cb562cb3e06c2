//! Where a result came from: the measured source tree, the host, the
//! toolchain, and a fixed calibration kernel's speed on this host, so
//! results from different hosts are never compared blind.

use std::fs;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::json::Obj;
use crate::world::fold;

/// Source directories and files digested into `tree_fnv64`, relative to
/// the checkout root the benchmark runs from.
const TREE: &[&str] = &["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"];

/// Provenance as a JSON object; `pinned_cpu` is what [`pin_one_cpu`]
/// returned (-1 when the process was not pinned).
pub fn collect(pinned_cpu: Option<usize>) -> Obj {
    let (sha, dirty) = git();
    Obj::new()
        .num("pinned_cpu", pinned_cpu.map_or(-1.0, |c| c as f64))
        .str("tree_fnv64", &format!("{:016x}", tree_digest()))
        .str("git_sha", &sha)
        .str("git_dirty", &dirty)
        .num("nproc", std::thread::available_parallelism().map_or(1, usize::from) as f64)
        .str("rustc", env!("PERFBENCH_RUSTC"))
        .num("calibration_mops", calibration_mops())
}

/// FNV-style digest of every file under [`TREE`], in sorted path order,
/// skipping hidden entries and build output.
pub fn tree_digest() -> u64 {
    let mut files = Vec::new();
    for root in TREE {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f.to_string_lossy().bytes() {
            h = fold(h, b as u64);
        }
        if let Ok(bytes) = fs::read(&f) {
            for chunk in bytes.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                h = fold(h, u64::from_le_bytes(w));
            }
        }
    }
    h
}

fn walk(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    let hidden = path
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with('.') || n == "target");
    if hidden {
        return;
    }
    if path.is_dir() {
        if let Ok(entries) = fs::read_dir(path) {
            for e in entries.flatten() {
                walk(&e.path(), out);
            }
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

/// The commit and whether tracked files differ from it, when the
/// checkout is a git work tree; `none`/`unknown` otherwise.
fn git() -> (String, String) {
    if !Path::new(".git").exists() {
        return ("none".into(), "unknown".into());
    }
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let sha = run(&["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    let dirty = match run(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) if s.is_empty() => "clean",
        Some(_) => "dirty",
        None => "unknown",
    };
    (sha, dirty.into())
}

/// Millions of steps per second of a fixed integer kernel (a dependent
/// multiply-xor chain plus a table walk), best of three.
pub fn calibration_mops() -> f64 {
    const STEPS: u64 = 1 << 22;
    let mut table = vec![0u64; 1 << 16];
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..STEPS {
            x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let slot = (x as usize) & (table.len() - 1);
            table[slot] = table[slot].wrapping_add(i);
        }
        std::hint::black_box((&table, x));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    STEPS as f64 / best / 1e6
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// lowest-numbered CPU it may run on. Wall-clock figures then do not
/// depend on which CPU the scheduler happened to pick, nor on cross-CPU
/// wake-ups between the RPC driver and the server's worker thread.
/// Returns the CPU, or `None` when affinity cannot be read or set.
#[cfg(target_os = "linux")]
pub fn pin_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, with
    // one CPU set that the thread is already allowed to use.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0;
    pinned.then_some(cpu)
}

/// Pinning is only implemented for Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_one_cpu() -> Option<usize> {
    None
}
