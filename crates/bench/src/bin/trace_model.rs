//! Trace a small model matrix and export a Chrome `trace_event` file.
//!
//! Runs a fixed, deterministic mix of workloads with the trace recorder on:
//!
//! 1. sparse MobileNetV1 inference (per-block layer spans),
//! 2. a scaled-down sparse Transformer forward pass (spans + replays),
//! 3. two functional LSTM cell steps,
//! 4. one Figure-10 RNN problem profile,
//! 5. a dispatch ladder forced to degrade by a name-matched fault plan,
//! 6. a warmed launch cache (hit/miss instants, replayed launches).
//!
//! Outputs:
//! - `results/trace_model.trace.json` — Chrome trace, loadable in
//!   chrome://tracing or Perfetto, structurally validated before writing;
//! - `BENCH_trace_model.json` — the profiler-counter snapshot (repo root).
//!
//! `--check <baseline.json>` gates CI: the launch count must match the
//! committed baseline exactly (the workload is deterministic, so any drift
//! is an unreviewed behaviour change) and the cache must still produce hits.

use dnn::lstm::SparseLstmCell;
use dnn::rnn::{CellKind, RnnProblem};
use dnn::transformer::{AttentionMode, TransformerConfig};
use dnn::{mobilenet, rnn, transformer};
use gpu_sim::{metrics, trace, FaultKind, FaultPlan, Gpu, LaunchCache};
use sparse::{gen, Matrix};
use sputnik::{DispatchPolicy, SpmmConfig};
use sputnik_bench::gate;

fn main() {
    metrics::global().reset();
    trace::enable();
    let gpu = Gpu::v100();

    // 1. Sparse MobileNetV1 at width 0.5: every block emits a layer span.
    let model = mobilenet::MobileNetV1::new(0.5);
    let mn = mobilenet::benchmark(&gpu, &model, Some(0.9), false);

    // 2. Scaled-down sparse Transformer: layer spans plus replay events for
    //    the multiplied per-head / per-layer costs.
    let cfg = TransformerConfig {
        layers: 2,
        heads: 4,
        d_model: 256,
        ff: 512,
        seq: 512,
        batch: 1,
    };
    let mode = AttentionMode::Sparse {
        band: 64,
        off_diag_sparsity: 0.95,
        seed: 0x5eed,
    };
    let tr = transformer::benchmark(&gpu, &cfg, &mode);

    // 3. Two functional LSTM steps (lstm_step spans).
    let cell = SparseLstmCell::random(128, 64, 0.9, 7);
    let x = Matrix::<f32>::random(128, 8, 8);
    let h0 = Matrix::<f32>::zeros(64, 8);
    let c0 = Matrix::<f32>::zeros(64, 8);
    let step1 = cell.step(&gpu, &x, &h0, &c0);
    let _step2 = cell.step(&gpu, &x, &step1.h, &step1.c);

    // 4. One Figure-10 RNN problem profile (problem-labelled span).
    let problem = RnnProblem {
        cell: CellKind::Lstm,
        hidden: 512,
        sparsity: 0.9,
        batch: 32,
    };
    rnn::profile_problem(&gpu, &problem, 11);

    // 5. Dispatch ladder under a name-matched fault plan: both Sputnik rungs
    //    fail, the fallback kernel serves — fault and dispatch instants.
    let faulty =
        Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::EccError).matching("sputnik"));
    let a = gen::uniform(64, 64, 0.8, 3);
    let b = Matrix::<f32>::random(64, 32, 4);
    let (_, report) = match sputnik::dispatch::spmm(
        &faulty,
        None,
        &a,
        &b,
        SpmmConfig::default(),
        &DispatchPolicy::default(),
    ) {
        Ok(served) => served,
        Err(e) => {
            eprintln!("trace_model: dispatch ladder failed to bottom out: {e}");
            std::process::exit(1);
        }
    };
    assert_ne!(
        report.served_by,
        sputnik::Rung::Sputnik,
        "the fault plan must force a degraded serve"
    );

    // 6. Launch-cache reuse: repeated profiles replay from the cache
    //    (hit/miss instants + launches_replayed).
    let cache = LaunchCache::new();
    for _ in 0..4 {
        sputnik::spmm_profile_cached::<f32>(&gpu, &cache, &a, 64, 32, SpmmConfig::default());
    }

    // ---- Export and validate.
    let events = trace::disable();
    let json = trace::chrome_trace_json(&events);
    let check = match trace::validate_chrome_trace(&json) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[trace failed schema validation: {e}]");
            std::process::exit(1);
        }
    };
    std::fs::create_dir_all("results").ok();
    let trace_path = "results/trace_model.trace.json";
    match std::fs::write(trace_path, &json) {
        Ok(()) => eprintln!("[trace written to {trace_path}]"),
        Err(e) => eprintln!("[failed to write {trace_path}: {e}]"),
    }

    let profile = trace::ProfileReport::from_events(&events);
    println!("{}", profile.render());
    let layer_sum: f64 = profile.layers.iter().map(|l| l.dur_us).sum();
    assert!(
        (layer_sum - profile.total_us).abs() <= 1e-6 * profile.total_us.max(1.0),
        "per-layer durations ({layer_sum} us) must sum to the model total ({} us)",
        profile.total_us
    );

    println!(
        "mobilenet 0.5x sparse: {:.1} us/frame   transformer fwd: {:.1} us   tokens/s: {:.0}",
        mn.inference_us, tr.forward_us, tr.tokens_per_second
    );
    println!(
        "trace: {} events, {} launches, {} counters, {} instants, {} tracks",
        check.events, check.launches, check.counters, check.instants, check.tracks
    );

    // ---- Counter snapshot (hand-rolled flat JSON: the vendored serde stub
    // cannot serialize).
    let snap = metrics::global().snapshot();
    let bench_json = format!(
        "{{\n  \"bench\": \"trace_model\",\n  \"launches\": {launches},\n  \"launches_replayed\": {replayed},\n  \"cache_hits\": {hits},\n  \"cache_misses\": {misses},\n  \"faults_injected\": {faults},\n  \"dispatch_degraded\": {degraded},\n  \"sim_time_us\": {sim:.3},\n  \"trace_events\": {events},\n  \"trace_launches\": {tlaunches},\n  \"trace_tracks\": {tracks},\n  \"profile_layers\": {layers},\n  \"profile_total_us\": {total:.3}\n}}\n",
        launches = snap.get("launches"),
        replayed = snap.get("launches_replayed"),
        hits = snap.get("cache_hits"),
        misses = snap.get("cache_misses"),
        faults = snap.get("faults_injected"),
        degraded = snap.get("dispatch_degraded"),
        sim = snap.sim_time_us(),
        events = check.events,
        tlaunches = check.launches,
        tracks = check.tracks,
        layers = profile.layers.len(),
        total = profile.total_us,
    );
    let bench_path = "BENCH_trace_model.json";
    match std::fs::write(bench_path, &bench_json) {
        Ok(()) => eprintln!("[results written to {bench_path}]"),
        Err(e) => eprintln!("[failed to write {bench_path}: {e}]"),
    }

    // ---- CI gate.
    let baseline_arg = std::env::args().skip_while(|a| a != "--check").nth(1);
    if let Some(baseline_path) = baseline_arg {
        match check_counters(&baseline_path, &snap) {
            Ok(()) => println!("[--check passed vs {baseline_path}]"),
            Err(e) => {
                eprintln!("[--check FAILED: {e}]");
                std::process::exit(1);
            }
        }
    }
}

/// The workload is fixed and the simulator deterministic, so the launch
/// count must match the baseline exactly; the cache must still hit.
fn check_counters(baseline_path: &str, snap: &gpu_sim::MetricsSnapshot) -> Result<(), String> {
    let text = gate::read_baseline(baseline_path)?;
    let base_launches = gate::metric_u64(&text, "launches", baseline_path)?;
    gate::require_exact("launches", base_launches, snap.get("launches"))?;
    gate::require_nonzero("cache_hits", snap.get("cache_hits"))?;
    gate::require_nonzero("launches_replayed", snap.get("launches_replayed"))
}
