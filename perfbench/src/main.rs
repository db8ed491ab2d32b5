//! The repository benchmark: seeded workloads over the sputnik-rs crates,
//! measured on both clocks (simulated device time and host wall time).
//!
//! ```text
//! perfbench --workload <dlmc|serve|model_step> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The process
//! exits nonzero when a correctness check fails. See `perfbench/README.md`.

// This is a wall-timing benchmark: it reads the host clock by design.
#![allow(clippy::disallowed_methods)]

mod dlmc;
mod harness;
mod model;
mod serving;

use harness::{measure, Args};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <dlmc|serve|model_step> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value {value:?} for {flag}")))
}

/// Keep freed heap memory in the process instead of handing it back to the
/// kernel. A pass frees hundreds of megabytes that the next pass allocates
/// again; with glibc's defaults every pass faults all of it back in, and on a
/// shared VM those page faults cost a volatile 15-30% of a pass. With this
/// set, a run's first set-up and first pass fault the memory in, and later
/// ones reuse it. `peak_rss_mb` still reports the memory a pass needs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn retain_freed_memory() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets glibc allocator parameters. It runs
    // before the first allocation of any workload, on the only thread.
    let ok = unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 };
    assert!(ok, "mallopt failed");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn retain_freed_memory() {}

fn main() {
    retain_freed_memory();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = parse(flag, value),
            "--seconds" => args.seconds = parse(flag, value),
            "--trace" => args.trace = parse::<u8>(flag, value) == 1,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let correct = match workload.as_deref() {
        Some("dlmc") => measure(&dlmc::WORKLOAD, &args),
        Some("serve") => measure(&serving::WORKLOAD, &args),
        Some("model_step") => measure(&model::WORKLOAD, &args),
        Some(other) => usage(&format!("unknown workload {other:?}")),
        None => usage("--workload is required"),
    };
    if !correct {
        std::process::exit(1);
    }
}
