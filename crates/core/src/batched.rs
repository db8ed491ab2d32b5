//! Batched dispatch windows.
//!
//! Sparse attention runs the *same* sparse topology against many dense
//! operands — one per (head, batch element) — and a serving window coalesces
//! requests on one topology. A window here is a plain loop over the
//! fault-tolerant entry points [`dispatch::spmm`] / [`dispatch::sddmm`]
//! through one caller-owned [`LaunchCache`]: the simulated statistics depend
//! on the topology and configuration, not the dense values, so items 2..k
//! replay item 1's simulation, and repeated windows (layers, training steps,
//! serving batches) hit across calls too. An armed [`gpu_sim::FaultPlan`]
//! degrades individual items down the ladder instead of killing the window,
//! and, as everywhere, bypasses the cache.
//!
//! The window's device time pipelines the GPU-served launches with
//! [`gpu_sim::pipelined_us`] (back-to-back launches on one stream), so
//! back-to-back items overlap their launch overhead as they would on real
//! hardware.

use crate::config::{SddmmConfig, SpmmConfig};
use crate::dispatch::{self, DispatchPolicy, DispatchReport, Rung};
use crate::error::SputnikError;
use gpu_sim::{Gpu, LaunchCache};
use sparse::{CsrMatrix, Matrix, Scalar};

/// Per-item attribution for batched launches that bypass the launch cache
/// because the [`Gpu`] carries a fault plan. The bypass itself is silent
/// (it happens inside [`Gpu::run`]), which used to leave chaos
/// runs with no record of *which* batch items consumed fault-schedule
/// indices — this instant restores the audit trail.
fn note_fault_plan_bypass(gpu: &Gpu, op: &str, item: usize) {
    if gpu.fault_plan().is_some() && gpu_sim::trace::enabled() {
        gpu_sim::trace::instant(
            "batched",
            "batched",
            &format!("fault-plan bypass: {op} item {item} simulated in full"),
        );
    }
}

/// Result of a fault-tolerant batched window: per-item outputs plus the
/// [`DispatchReport`] for every item, so serving layers can attribute each
/// request to the degradation rung that produced its answer.
///
/// `stream_us` pipelines the GPU-served launches with
/// [`gpu_sim::pipelined_us`] (one exposed launch overhead, subsequent
/// launches hidden behind execution), plus the simulated retry backoff.
/// CPU-served items contribute **no** simulated device time here — the
/// caller owns the host-time model (see `serve::ServePolicy::cpu_service_us`),
/// because how expensive a host fallback is depends on what else the host is
/// doing.
pub struct DispatchedBatch<T> {
    pub outputs: Vec<T>,
    /// Per-item dispatch reports, same order as `outputs`.
    pub reports: Vec<DispatchReport>,
    /// Pipelined simulated time of the GPU-served launches plus backoff.
    /// Never exceeds `naive_us`: pipelining can only hide overhead.
    pub stream_us: f64,
    /// Sum of standalone GPU launch times plus backoff (naive sequential).
    pub naive_us: f64,
    /// Launches whose statistics were replayed from the launch cache.
    pub cache_hits: u64,
}

impl<T> DispatchedBatch<T> {
    /// Items whose request was served by the host CPU rung (no launch stats).
    pub fn cpu_served(&self) -> u64 {
        self.reports.iter().filter(|r| r.stats.is_none()).count() as u64
    }

    /// Items served by a rung other than the requested configuration.
    pub fn degraded(&self) -> u64 {
        self.reports
            .iter()
            .filter(|r| r.served_by != Rung::Sputnik)
            .count() as u64
    }
}

/// Fault-tolerant batched SpMM of one sparse matrix against many dense
/// operands: every item goes through [`dispatch::spmm`] (Sputnik →
/// heuristic → fallback → CPU) with `cache`.
///
/// Errors are returned only for deterministic input violations; transient
/// device faults always land on a rung.
pub fn spmm_batched_dispatch<T: Scalar>(
    gpu: &Gpu,
    cache: &LaunchCache,
    a: &CsrMatrix<T>,
    bs: &[&Matrix<T>],
    cfg: SpmmConfig,
    policy: &DispatchPolicy,
) -> Result<DispatchedBatch<Matrix<T>>, SputnikError> {
    window(gpu, cache, "spmm-dispatch", bs, |b| {
        dispatch::spmm(gpu, Some(cache), a, b, cfg, policy)
    })
}

/// Fault-tolerant batched SDDMM of one mask against many (lhs, rhs) pairs —
/// the per-head QK^T of sparse attention ("the sparse attention mask ... is
/// shared by all attention heads and layers"): every item goes through
/// [`dispatch::sddmm`] (Sputnik → heuristic → CPU) with `cache`.
///
/// Errors are returned only for deterministic input violations.
pub fn sddmm_batched_dispatch<T: Scalar>(
    gpu: &Gpu,
    cache: &LaunchCache,
    pairs: &[(&Matrix<T>, &Matrix<T>)],
    mask: &CsrMatrix<T>,
    cfg: SddmmConfig,
    policy: &DispatchPolicy,
) -> Result<DispatchedBatch<CsrMatrix<T>>, SputnikError> {
    window(gpu, cache, "sddmm-dispatch", pairs, |&(lhs, rhs)| {
        dispatch::sddmm(gpu, Some(cache), lhs, rhs, mask, cfg, policy)
    })
}

/// Serve every item of a window in order, then time the window.
fn window<I, T>(
    gpu: &Gpu,
    cache: &LaunchCache,
    op: &str,
    items: &[I],
    mut serve: impl FnMut(&I) -> Result<(T, DispatchReport), SputnikError>,
) -> Result<DispatchedBatch<T>, SputnikError> {
    let hits_before = cache.hits();
    let mut outputs = Vec::with_capacity(items.len());
    let mut reports = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        note_fault_plan_bypass(gpu, op, i);
        let (out, report) = serve(item)?;
        outputs.push(out);
        reports.push(report);
    }
    // Backoff (simulated retry delay) is serial in both views.
    let times = reports
        .iter()
        .filter_map(|r| r.stats.as_ref().map(|s| s.time_us));
    let backoff: f64 = reports.iter().map(|r| r.backoff_us).sum();
    let naive_us = times.clone().sum::<f64>() + backoff;
    let stream_us = gpu_sim::pipelined_us(gpu.device().launch_overhead_us, times) + backoff;
    assert!(
        stream_us <= naive_us + 1e-9,
        "model violation: stream time {stream_us} us exceeds naive sequential {naive_us} us \
         (pipelining can only hide overhead)"
    );
    Ok(DispatchedBatch {
        outputs,
        reports,
        stream_us,
        naive_us,
        cache_hits: cache.hits() - hits_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gpu_sim::{FaultKind, FaultPlan};
    use sparse::gen;

    fn spmm_window(
        gpu: &Gpu,
        cache: &LaunchCache,
        a: &CsrMatrix<f32>,
        bs: &[Matrix<f32>],
        cfg: SpmmConfig,
    ) -> DispatchedBatch<Matrix<f32>> {
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        spmm_batched_dispatch(gpu, cache, a, &refs, cfg, &DispatchPolicy::default())
            .expect("clean window")
    }

    #[test]
    fn batched_spmm_matches_individual_launches() {
        let gpu = Gpu::v100();
        let a = gen::uniform(64, 48, 0.7, 321);
        let bs = [
            Matrix::<f32>::random(48, 32, 322),
            Matrix::<f32>::random(48, 32, 323),
        ];
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let result = spmm_window(&gpu, &LaunchCache::new(), &a, &bs, cfg);
        assert_eq!(result.outputs.len(), 2);
        for ((out, report), b) in result.outputs.iter().zip(&result.reports).zip(&bs) {
            let (solo, stats) = crate::spmm(&gpu, &a, b, cfg);
            assert_eq!(out.as_slice(), solo.as_slice());
            assert_eq!(report.stats.as_ref(), Some(&stats));
        }
        assert_eq!(
            result.cache_hits, 1,
            "second item replays the first's simulation"
        );
    }

    #[test]
    fn stream_saves_launch_overhead() {
        let gpu = Gpu::v100();
        let a = gen::uniform(128, 128, 0.8, 324);
        let bs: Vec<Matrix<f32>> = (0..8).map(|i| Matrix::random(128, 64, 325 + i)).collect();
        let cfg = SpmmConfig::heuristic::<f32>(64);
        let result = spmm_window(&gpu, &LaunchCache::new(), &a, &bs, cfg);
        assert!(
            result.stream_us < result.naive_us,
            "pipelining must save time"
        );
        assert_eq!(result.cache_hits, 7, "items 2..8 hit the window's cache");
    }

    /// Regression (saved overhead < 0): a single tiny kernel used to pay
    /// the short-kernel gap penalty with no successor to pipeline, so a
    /// one-item window came out slower than its naive launch. The pipelined
    /// time must not exceed the naive sum for any window size.
    #[test]
    fn overhead_saved_is_never_negative() {
        let gpu = Gpu::v100();
        // Tiny problem: execution well under the launch overhead.
        let a = gen::uniform(4, 4, 0.5, 331);
        let bs: Vec<Matrix<f32>> = (0..8).map(|i| Matrix::random(4, 4, 332 + i)).collect();
        let cfg = SpmmConfig::heuristic::<f32>(4);
        for k in 1..=bs.len() {
            let result = spmm_window(&gpu, &LaunchCache::new(), &a, &bs[..k], cfg);
            assert!(
                result.stream_us <= result.naive_us,
                "window of {k}: stream {} us exceeds naive {} us",
                result.stream_us,
                result.naive_us
            );
        }
    }

    /// One mask serves every head: a window of pairs replays the first
    /// pair's simulation, and a second window on the same cache replays all.
    #[test]
    fn batched_sddmm_shares_the_mask() {
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        let mask = gen::attention_mask(96, 16, 0.9, 326);
        let q1 = Matrix::<f32>::random(96, 32, 327);
        let k1 = Matrix::<f32>::random(96, 32, 328);
        let q2 = Matrix::<f32>::random(96, 32, 329);
        let k2 = Matrix::<f32>::random(96, 32, 330);
        let pairs = [(&q1, &k1), (&q2, &k2)];
        let cfg = SddmmConfig::heuristic::<f32>(32);
        let policy = DispatchPolicy::default();
        let first = sddmm_batched_dispatch(&gpu, &cache, &pairs, &mask, cfg, &policy).unwrap();
        for (out, (q, k)) in first.outputs.iter().zip(pairs) {
            let expect = reference::sddmm(q, k, &mask);
            assert!(out.same_pattern(&expect));
            for (a, b) in out.values().iter().zip(expect.values()) {
                assert!((a - b).abs() < 1e-3);
            }
        }
        assert_eq!(first.cache_hits, 1, "pair 2 replays pair 1's simulation");
        let second = sddmm_batched_dispatch(&gpu, &cache, &pairs, &mask, cfg, &policy).unwrap();
        assert_eq!(second.cache_hits, 2, "second window: every pair hits");
        assert_eq!(first.stream_us, second.stream_us, "replay is bit-identical");
    }

    /// The cache replays *statistics*, never values: every item's functional
    /// output must match its own reference even when served from the cache.
    #[test]
    fn cache_hits_do_not_cross_contaminate_outputs() {
        let gpu = Gpu::v100();
        let a = gen::uniform(48, 40, 0.6, 340);
        let bs: Vec<Matrix<f32>> = (0..4).map(|i| Matrix::random(40, 16, 341 + i)).collect();
        let cfg = SpmmConfig::heuristic::<f32>(16);
        let result = spmm_window(&gpu, &LaunchCache::new(), &a, &bs, cfg);
        assert_eq!(result.cache_hits, 3);
        for (out, b) in result.outputs.iter().zip(&bs) {
            assert!(out.max_abs_diff(&reference::spmm(&a, b)) < 1e-3);
        }
    }

    #[test]
    fn shared_cache_hits_across_batched_calls() {
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        let a = gen::uniform(64, 48, 0.7, 350);
        let bs: Vec<Matrix<f32>> = (0..3).map(|i| Matrix::random(48, 32, 351 + i)).collect();
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let first = spmm_window(&gpu, &cache, &a, &bs, cfg);
        assert_eq!(first.cache_hits, 2, "first call: items 2..3 hit");
        let second = spmm_window(&gpu, &cache, &a, &bs, cfg);
        assert_eq!(second.cache_hits, 3, "second call: every item hits");
        assert_eq!(first.stream_us, second.stream_us, "replay is bit-identical");
        assert_eq!(first.outputs, second.outputs);
    }

    #[test]
    fn dispatched_batch_matches_reference_and_hits_cache() {
        let gpu = Gpu::v100();
        let a = gen::uniform(64, 48, 0.7, 370);
        let bs: Vec<Matrix<f32>> = (0..3).map(|i| Matrix::random(48, 32, 371 + i)).collect();
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let first = spmm_window(&gpu, &LaunchCache::new(), &a, &bs, cfg);
        assert_eq!(first.outputs.len(), 3);
        assert_eq!(first.degraded(), 0, "clean run serves from Sputnik rung");
        assert!(first.reports.iter().all(|r| r.clean()));
        for (out, b) in first.outputs.iter().zip(&bs) {
            assert!(out.max_abs_diff(&reference::spmm(&a, b)) < 1e-3);
        }
        assert_eq!(first.cache_hits, 2, "items 2..3 replay item 1");
        assert!(first.stream_us <= first.naive_us);
    }

    /// The point of the dispatched window: a fault plan degrades individual
    /// items instead of aborting the window, every item lands on a rung,
    /// and the outputs stay correct.
    #[test]
    fn dispatched_batch_survives_faults_per_item() {
        let gpu = Gpu::v100()
            .with_fault_plan(FaultPlan::fail_first(2, FaultKind::EccError).matching("sputnik"));
        let cache = LaunchCache::new();
        let a = gen::uniform(64, 48, 0.7, 380);
        let bs: Vec<Matrix<f32>> = (0..3).map(|i| Matrix::random(48, 32, 381 + i)).collect();
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let result = spmm_window(&gpu, &cache, &a, &bs, cfg);
        assert_eq!(result.outputs.len(), 3);
        assert!(result.degraded() >= 1, "the faulted item must degrade");
        let failed: usize = result.reports.iter().map(|r| r.attempts.len()).sum();
        assert!(failed >= 2, "both scheduled faults surface as attempts");
        assert_eq!(result.cache_hits, 0, "fault plans bypass the cache");
        for (out, b) in result.outputs.iter().zip(&bs) {
            assert!(out.max_abs_diff(&reference::spmm(&a, b)) < 1e-3);
        }
    }

    #[test]
    fn dispatched_sddmm_degrades_to_cpu_under_sustained_faults() {
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::fail_all(FaultKind::EccError));
        let cache = LaunchCache::new();
        let mask = gen::attention_mask(64, 8, 0.9, 390);
        let q = Matrix::<f32>::random(64, 32, 391);
        let k = Matrix::<f32>::random(64, 32, 392);
        let cfg = SddmmConfig::heuristic::<f32>(32);
        let result = sddmm_batched_dispatch(
            &gpu,
            &cache,
            &[(&q, &k)],
            &mask,
            cfg,
            &DispatchPolicy::default(),
        )
        .expect("the CPU rung cannot fault");
        assert_eq!(result.reports[0].served_by, Rung::CpuReference);
        assert_eq!(result.cpu_served(), 1);
        let expect = reference::sddmm(&q, &k, &mask);
        for (a, b) in result.outputs[0].values().iter().zip(expect.values()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn dispatched_sddmm_clean_run_serves_sputnik() {
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        let mask = gen::attention_mask(96, 16, 0.9, 393);
        let q1 = Matrix::<f32>::random(96, 32, 394);
        let k1 = Matrix::<f32>::random(96, 32, 395);
        let q2 = Matrix::<f32>::random(96, 32, 396);
        let k2 = Matrix::<f32>::random(96, 32, 397);
        let cfg = SddmmConfig::heuristic::<f32>(32);
        let result = sddmm_batched_dispatch(
            &gpu,
            &cache,
            &[(&q1, &k1), (&q2, &k2)],
            &mask,
            cfg,
            &DispatchPolicy::default(),
        )
        .unwrap();
        assert!(result.reports.iter().all(|r| r.served_by == Rung::Sputnik));
        assert_eq!(result.cache_hits, 1, "pair 2 replays pair 1");
        for (out, (q, k)) in result.outputs.iter().zip([(&q1, &k1), (&q2, &k2)]) {
            let expect = reference::sddmm(q, k, &mask);
            for (a, b) in out.values().iter().zip(expect.values()) {
                assert!((a - b).abs() < 1e-3);
            }
        }
    }

    /// Regression: mismatched dot-product lengths used to fail every GPU
    /// rung and then panic inside the CPU reference rung. The shared
    /// up-front validation returns a typed error before any launch.
    #[test]
    fn dispatched_sddmm_rejects_shape_mismatch() {
        // A quiet plan counts the launches the ladder attempts.
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::none());
        let cache = LaunchCache::new();
        let mask = gen::attention_mask(64, 8, 0.9, 410);
        let q = Matrix::<f32>::random(64, 32, 411);
        let k = Matrix::<f32>::random(64, 16, 412);
        let cfg = SddmmConfig::heuristic::<f32>(32);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sddmm_batched_dispatch(
                &gpu,
                &cache,
                &[(&q, &k)],
                &mask,
                cfg,
                &DispatchPolicy::default(),
            )
        }));
        let Ok(result) = result else {
            panic!("a shape mismatch must be a typed error, not a panic");
        };
        assert!(matches!(
            result.err(),
            Some(SputnikError::ShapeMismatch { .. })
        ));
        assert_eq!(
            gpu.fault_plan().map(FaultPlan::launches_observed),
            Some(0),
            "rejected before any launch"
        );
    }

    /// Regression: a NaN operand used to burn two attempts, land on the
    /// CPU rung and come back `Ok` with a non-finite output. SDDMM dispatch
    /// now rejects it up front with the same typed error as SpMM dispatch.
    #[test]
    fn dispatched_sddmm_rejects_non_finite_operand() {
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        let mask = gen::attention_mask(64, 8, 0.9, 413);
        let mut q = Matrix::<f32>::random(64, 32, 414);
        q.set(3, 5, f32::NAN);
        let k = Matrix::<f32>::random(64, 32, 415);
        let cfg = SddmmConfig::heuristic::<f32>(32);
        let result = sddmm_batched_dispatch(
            &gpu,
            &cache,
            &[(&q, &k)],
            &mask,
            cfg,
            &DispatchPolicy::default(),
        );
        assert!(
            matches!(
                result.as_ref().err(),
                Some(SputnikError::NonFiniteOperand { operand: "lhs", .. })
            ),
            "NaN lhs must be rejected, got served by {:?}",
            result.ok().map(|r| r.reports[0].served_by)
        );
    }

    /// Batched windows under a fault plan bypass the launch cache silently
    /// inside the launcher — the window loop must record a per-item trace
    /// instant so chaos runs can audit exactly which items consumed
    /// fault-schedule indices.
    #[test]
    fn fault_plan_bypass_leaves_per_item_trace_instants() {
        use gpu_sim::trace;
        let a = gen::uniform(48, 40, 0.6, 400);
        let bs: Vec<Matrix<f32>> = (0..4).map(|i| Matrix::random(40, 16, 401 + i)).collect();
        let mask = gen::attention_mask(48, 8, 0.9, 405);
        let q = Matrix::<f32>::random(48, 16, 406);
        let k = Matrix::<f32>::random(48, 16, 407);
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::none());
        let cache = LaunchCache::new();

        trace::enable();
        spmm_window(&gpu, &cache, &a, &bs, SpmmConfig::heuristic::<f32>(16));
        sddmm_batched_dispatch(
            &gpu,
            &cache,
            &[(&q, &k), (&q, &k)],
            &mask,
            SddmmConfig::heuristic::<f32>(16),
            &DispatchPolicy::default(),
        )
        .expect("clean window");
        let events = trace::disable();

        // The recorder is process-global (other tests may append events
        // concurrently), so assert on the presence of our items rather than
        // exact counts.
        let bypasses: Vec<&str> = events
            .iter()
            .filter(|e| e.cat == "batched")
            .map(|e| e.name.as_str())
            .collect();
        for (op, items) in [("spmm-dispatch", 4), ("sddmm-dispatch", 2)] {
            for i in 0..items {
                let want = format!("fault-plan bypass: {op} item {i} simulated in full");
                assert!(
                    bypasses.iter().any(|n| **n == want),
                    "missing instant '{want}' in {bypasses:?}"
                );
            }
        }
    }

    /// Fault-plan GPUs must bypass the window's cache (fault schedules
    /// consume per-launch indices): every launch simulates and consults the
    /// schedule, and nothing is memoized.
    #[test]
    fn fault_plan_bypasses_batch_cache() {
        let a = gen::uniform(64, 48, 0.7, 360);
        let bs: Vec<Matrix<f32>> = (0..3).map(|i| Matrix::random(48, 32, 361 + i)).collect();
        let cfg = SpmmConfig::heuristic::<f32>(32);

        // An armed-but-quiet plan: the cache must still be bypassed.
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::none());
        let cache = LaunchCache::new();
        let result = spmm_window(&gpu, &cache, &a, &bs, cfg);
        assert_eq!(result.cache_hits, 0, "no cache service under a fault plan");
        assert!(cache.is_empty(), "no inserts while a fault plan is armed");
        assert_eq!(
            gpu.fault_plan().map(FaultPlan::launches_observed),
            Some(3),
            "every batched launch consults the schedule"
        );
    }
}
