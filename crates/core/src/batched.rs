//! Batched kernel launches.
//!
//! Sparse attention runs the *same* sparse topology against many dense
//! operands — one per (head, batch element) — and sparse training reuses one
//! weight topology across micro-batches. These helpers amortize everything
//! amortizable: the row swizzle is computed once, the launches go through a
//! [`gpu_sim::Stream`] so consecutive kernels overlap their launch overhead
//! (as back-to-back launches do on real hardware), and the stream consults a
//! [`LaunchCache`] — the simulated statistics depend on the topology and
//! configuration, not the dense values, so items 2..k of a batch replay item
//! 1's simulation instead of re-running it. The usual bypass rule applies: a
//! [`Gpu`] carrying a fault plan simulates every launch in full.
//!
//! [`spmm_batched`] / [`sddmm_batched`] memoize within the one call (a
//! private per-batch cache); the `_cached` variants accept a caller-owned
//! cache so repeated batches (layers, training steps) hit across calls too.

use crate::config::{SddmmConfig, SpmmConfig};
use crate::dispatch::{self, Attempt, DispatchPolicy, DispatchReport, Rung};
use crate::error::{is_transient, SputnikError};
use crate::reference;
use crate::sddmm::{self, SddmmKernel};
use crate::spmm::{self, SpmmKernel};
use gpu_sim::{Gpu, Launch, LaunchCache, LaunchStats, Stream};
use sparse::{CsrMatrix, Matrix, RowSwizzle, Scalar};

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

/// Result of a batched launch: per-item outputs plus stream-level timing.
pub struct BatchedResult<T> {
    pub outputs: Vec<T>,
    /// Total simulated time with launch overhead pipelined.
    pub stream_us: f64,
    /// Sum of standalone launch times (what naive sequential launches cost).
    pub naive_us: f64,
    /// Launches whose statistics were replayed from the launch cache.
    pub cache_hits: u64,
}

impl<T> BatchedResult<T> {
    /// How much the stream pipelining saved.
    ///
    /// Invariant: **never negative**. Pipelining can only hide launch
    /// overhead behind execution, so a stream slower than its naive
    /// back-to-back sum is a model violation — the batched constructors
    /// assert it on every batch.
    pub fn overhead_saved_us(&self) -> f64 {
        self.naive_us - self.stream_us
    }
}

/// Check the stream-vs-naive model invariant for a finished batch.
fn assert_stream_invariant(stream_us: f64, naive_us: f64) {
    assert!(
        stream_us <= naive_us + 1e-9,
        "model violation: stream time {stream_us} us exceeds naive sequential {naive_us} us \
         (pipelining can only hide overhead)"
    );
}

/// SpMM of one sparse matrix against many dense operands, memoized within
/// the batch (every item shares `a`'s topology and `cfg`, so items 2..k are
/// cache replays).
pub fn spmm_batched<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    bs: &[&Matrix<T>],
    cfg: SpmmConfig,
) -> BatchedResult<Matrix<T>> {
    let cache = LaunchCache::new();
    spmm_batched_cached(gpu, &cache, a, bs, cfg)
}

/// [`spmm_batched`] through a caller-owned [`LaunchCache`], so repeated
/// batches on the same topology hit across calls.
pub fn spmm_batched_cached<T: Scalar>(
    gpu: &Gpu,
    cache: &LaunchCache,
    a: &CsrMatrix<T>,
    bs: &[&Matrix<T>],
    cfg: SpmmConfig,
) -> BatchedResult<Matrix<T>> {
    let swizzle = RowSwizzle::new(a, cfg.row_swizzle);
    let mut stream = Stream::with_cache(gpu, cache);
    let mut outputs = Vec::with_capacity(bs.len());
    let mut naive_us = 0.0;
    for (item, b) in bs.iter().enumerate() {
        note_fault_plan_bypass(gpu, "spmm", item);
        let mut out = Matrix::<T>::zeros(a.rows(), b.cols());
        let fingerprint = spmm::operand_fingerprint(a, b.cols());
        let stats = {
            let kernel = SpmmKernel::new(a, b, &mut out, &swizzle, cfg);
            stream.launch_cached(fingerprint, &kernel)
        };
        naive_us += stats.time_us;
        outputs.push(out);
    }
    let stream_us = stream.total_us();
    assert_stream_invariant(stream_us, naive_us);
    BatchedResult {
        outputs,
        stream_us,
        naive_us,
        cache_hits: stream.cache_hits(),
    }
}

/// SDDMM of one mask against many (lhs, rhs) pairs — the per-head QK^T of
/// sparse attention ("the sparse attention mask ... is shared by all
/// attention heads and layers"). Memoized within the batch like
/// [`spmm_batched`].
pub fn sddmm_batched<T: Scalar>(
    gpu: &Gpu,
    pairs: &[(&Matrix<T>, &Matrix<T>)],
    mask: &CsrMatrix<T>,
    cfg: SddmmConfig,
) -> BatchedResult<CsrMatrix<T>> {
    let cache = LaunchCache::new();
    sddmm_batched_cached(gpu, &cache, pairs, mask, cfg)
}

/// [`sddmm_batched`] through a caller-owned [`LaunchCache`].
pub fn sddmm_batched_cached<T: Scalar>(
    gpu: &Gpu,
    cache: &LaunchCache,
    pairs: &[(&Matrix<T>, &Matrix<T>)],
    mask: &CsrMatrix<T>,
    cfg: SddmmConfig,
) -> BatchedResult<CsrMatrix<T>> {
    let swizzle = RowSwizzle::new(mask, cfg.row_swizzle);
    let mut stream = Stream::with_cache(gpu, cache);
    let mut outputs = Vec::with_capacity(pairs.len());
    let mut naive_us = 0.0;
    for (item, (lhs, rhs)) in pairs.iter().enumerate() {
        note_fault_plan_bypass(gpu, "sddmm", item);
        let mut values = vec![T::zero(); mask.nnz()];
        let fingerprint = sddmm::mask_fingerprint(mask, lhs.cols());
        let stats = {
            let kernel = SddmmKernel::new(lhs, rhs, mask, &mut values, &swizzle, cfg);
            stream.launch_cached(fingerprint, &kernel)
        };
        naive_us += stats.time_us;
        outputs.push(mask.with_values(values));
    }
    let stream_us = stream.total_us();
    assert_stream_invariant(stream_us, naive_us);
    BatchedResult {
        outputs,
        stream_us,
        naive_us,
        cache_hits: stream.cache_hits(),
    }
}

/// Result of a fault-tolerant batched window: per-item outputs plus the
/// [`DispatchReport`] for every item, so serving layers can attribute each
/// request to the degradation rung that produced its answer.
///
/// Timing mirrors [`BatchedResult`]: `stream_us` pipelines the GPU-served
/// launches' overhead exactly like [`gpu_sim::Stream`] would (one exposed
/// launch overhead, subsequent launches hidden behind execution), plus the
/// simulated retry backoff. CPU-served items contribute **no** simulated
/// device time here — the caller owns the host-time model (see
/// `serve::ServePolicy::cpu_service_us`), because how expensive a host
/// fallback is depends on what else the host is doing.
pub struct DispatchedBatch<T> {
    pub outputs: Vec<T>,
    /// Per-item dispatch reports, same order as `outputs`.
    pub reports: Vec<DispatchReport>,
    /// Pipelined simulated time of the GPU-served launches plus backoff.
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

/// Pipeline the GPU-served launches of a dispatched batch the way
/// [`Stream::total_us`] would: one exposed launch overhead, each
/// non-final kernel hides the next launch's setup unless it is shorter than
/// the short-kernel gap. Backoff (simulated retry delay) is serial in both
/// views. Returns `(stream_us, naive_us)`.
fn pipeline_dispatched(gpu: &Gpu, reports: &[DispatchReport]) -> (f64, f64) {
    let overhead = gpu.device().launch_overhead_us;
    let times: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.stats.as_ref().map(|s| s.time_us))
        .collect();
    let backoff: f64 = reports.iter().map(|r| r.backoff_us).sum();
    let naive_us: f64 = times.iter().sum::<f64>() + backoff;
    let mut stream_us = if times.is_empty() { 0.0 } else { overhead };
    for (i, &t) in times.iter().enumerate() {
        let exec = t - overhead;
        stream_us += if i + 1 < times.len() {
            exec.max(overhead * 0.3)
        } else {
            exec
        };
    }
    (stream_us + backoff, naive_us)
}

/// Fault-tolerant batched SpMM: every item goes through the
/// [`crate::dispatch`] degradation ladder (retry → heuristic → fallback →
/// CPU), so an armed [`gpu_sim::FaultPlan`] degrades individual items
/// instead of killing the batch. Clean items consult `cache` exactly like
/// [`spmm_batched_cached`] (fault-plan GPUs bypass it, and each bypassed
/// item leaves a trace instant for auditability).
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
    let hits_before = cache.hits();
    let mut outputs = Vec::with_capacity(bs.len());
    let mut reports = Vec::with_capacity(bs.len());
    for (item, b) in bs.iter().enumerate() {
        note_fault_plan_bypass(gpu, "spmm-dispatch", item);
        let (out, report) = dispatch::spmm_cached(gpu, cache, a, b, cfg, policy)?;
        outputs.push(out);
        reports.push(report);
    }
    let (stream_us, naive_us) = pipeline_dispatched(gpu, &reports);
    assert_stream_invariant(stream_us, naive_us);
    Ok(DispatchedBatch {
        outputs,
        reports,
        stream_us,
        naive_us,
        cache_hits: cache.hits() - hits_before,
    })
}

/// Scan an SDDMM output for non-finite values (the SDDMM ladder's detection
/// guard; the SpMM checksum has no cheap SDDMM analogue — recomputing the
/// masked dot products *is* the kernel).
fn check_sddmm_output<T: Scalar>(
    out: &CsrMatrix<T>,
    policy: &DispatchPolicy,
    kernel: &str,
) -> Result<(), SputnikError> {
    if !policy.check_finite {
        return Ok(());
    }
    for v in out.values() {
        if !v.to_f32().is_finite() {
            return Err(SputnikError::CorruptOutput {
                kernel: kernel.to_string(),
                reason: "non-finite value in output".into(),
            });
        }
    }
    Ok(())
}

/// One SDDMM launch through the cross-launch cache (the SDDMM analogue of
/// the dispatch module's `launch_sputnik`).
fn launch_sddmm_cached<T: Scalar>(
    gpu: &Gpu,
    cache: &LaunchCache,
    lhs: &Matrix<T>,
    rhs: &Matrix<T>,
    mask: &CsrMatrix<T>,
    swizzle: &RowSwizzle,
    cfg: SddmmConfig,
) -> Result<(CsrMatrix<T>, LaunchStats), SputnikError> {
    let mut values = vec![T::zero(); mask.nnz()];
    let launched = {
        let kernel = SddmmKernel::try_new(lhs, rhs, mask, &mut values, swizzle, cfg)?;
        let req = Launch::FUNCTIONAL.cached(cache, sddmm::mask_fingerprint(mask, lhs.cols()));
        gpu.run(&req, &kernel)?
    };
    Ok((mask.with_values(values), launched.stats))
}

/// Fault-tolerant batched SDDMM: the SDDMM arm of the serving front door.
/// The ladder is shorter than SpMM's — requested config → heuristic config →
/// CPU reference — because there is no separate fallback SDDMM kernel; the
/// rung that served each item still lands in its [`DispatchReport`] so
/// chaos runs stay fully attributed.
pub fn sddmm_batched_dispatch<T: Scalar>(
    gpu: &Gpu,
    cache: &LaunchCache,
    pairs: &[(&Matrix<T>, &Matrix<T>)],
    mask: &CsrMatrix<T>,
    cfg: SddmmConfig,
    policy: &DispatchPolicy,
) -> Result<DispatchedBatch<CsrMatrix<T>>, SputnikError> {
    let hits_before = cache.hits();
    let swizzle_desc = RowSwizzle::by_length_desc(mask);
    let swizzle_id = RowSwizzle::identity(mask.rows());
    let mut outputs = Vec::with_capacity(pairs.len());
    let mut reports = Vec::with_capacity(pairs.len());
    for (item, (lhs, rhs)) in pairs.iter().enumerate() {
        note_fault_plan_bypass(gpu, "sddmm-dispatch", item);
        let heuristic = SddmmConfig::heuristic::<T>(lhs.cols());
        let mut rungs = vec![(Rung::Sputnik, cfg)];
        if heuristic != cfg {
            rungs.push((Rung::Heuristic, heuristic));
        }
        let mut attempts = Vec::new();
        let mut backoff_us = 0.0f64;
        let mut served: Option<(CsrMatrix<T>, DispatchReport)> = None;
        'ladder: for (rung, rung_cfg) in rungs {
            for attempt in 0..policy.attempts_per_rung {
                if attempt > 0 {
                    backoff_us += policy.backoff_base_us * f64::from(1u32 << (attempt - 1));
                }
                let swizzle = if rung_cfg.row_swizzle {
                    &swizzle_desc
                } else {
                    &swizzle_id
                };
                let result = launch_sddmm_cached(gpu, cache, lhs, rhs, mask, swizzle, rung_cfg)
                    .and_then(|(out, stats)| {
                        check_sddmm_output(&out, policy, &stats.kernel)?;
                        Ok((out, stats))
                    });
                match result {
                    Ok((out, stats)) => {
                        if rung != Rung::Sputnik {
                            gpu_sim::metrics::global().incr("dispatch_degraded", 1);
                            if gpu_sim::trace::enabled() {
                                gpu_sim::trace::instant(
                                    "dispatch",
                                    "dispatch",
                                    &format!("degraded: sddmm served by {rung} ({})", stats.kernel),
                                );
                            }
                        }
                        let report = DispatchReport {
                            served_by: rung,
                            stats: Some(stats),
                            attempts: std::mem::take(&mut attempts),
                            backoff_us,
                        };
                        served = Some((out, report));
                        break 'ladder;
                    }
                    Err(err) => {
                        let transient = is_transient(&err);
                        gpu_sim::metrics::global().incr("dispatch_failed_attempts", 1);
                        if gpu_sim::trace::enabled() {
                            gpu_sim::trace::instant(
                                "dispatch",
                                "dispatch",
                                &format!("sddmm rung {rung} attempt {attempt} failed: {err}"),
                            );
                        }
                        attempts.push(Attempt { rung, error: err });
                        if !transient {
                            break;
                        }
                    }
                }
            }
        }
        let (out, report) = served.unwrap_or_else(|| {
            // Last rung: host execution, cannot fail.
            gpu_sim::metrics::global().incr("dispatch_degraded", 1);
            if gpu_sim::trace::enabled() {
                gpu_sim::trace::instant("dispatch", "dispatch", "degraded: sddmm on cpu-reference");
            }
            let out32 = reference::sddmm(&lhs.to_f32(), &rhs.to_f32(), mask);
            let values: Vec<T> = out32.values().iter().map(|&v| T::from_f32(v)).collect();
            (
                mask.with_values(values),
                DispatchReport {
                    served_by: Rung::CpuReference,
                    stats: None,
                    attempts: std::mem::take(&mut attempts),
                    backoff_us,
                },
            )
        });
        outputs.push(out);
        reports.push(report);
    }
    let (stream_us, naive_us) = pipeline_dispatched(gpu, &reports);
    assert_stream_invariant(stream_us, naive_us);
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

    #[test]
    fn batched_spmm_matches_individual_launches() {
        let gpu = Gpu::v100();
        let a = gen::uniform(64, 48, 0.7, 321);
        let b1 = Matrix::<f32>::random(48, 32, 322);
        let b2 = Matrix::<f32>::random(48, 32, 323);
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let result = spmm_batched(&gpu, &a, &[&b1, &b2], cfg);
        assert_eq!(result.outputs.len(), 2);
        assert!(result.outputs[0].max_abs_diff(&reference::spmm(&a, &b1)) < 1e-3);
        assert!(result.outputs[1].max_abs_diff(&reference::spmm(&a, &b2)) < 1e-3);
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
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let result = spmm_batched(&gpu, &a, &refs, SpmmConfig::heuristic::<f32>(64));
        assert!(
            result.stream_us < result.naive_us,
            "pipelining must save time"
        );
        assert!(result.overhead_saved_us() > 0.0);
        assert_eq!(result.cache_hits, 7, "items 2..8 hit the batch cache");
    }

    /// Regression (`overhead_saved_us` < 0): a single tiny kernel used to
    /// pay the short-kernel gap penalty with no successor to pipeline, so a
    /// one-item "batch" came out slower than its naive launch. The saved
    /// overhead must be non-negative for every batch size.
    #[test]
    fn overhead_saved_is_never_negative() {
        let gpu = Gpu::v100();
        // Tiny problem: execution well under the launch overhead.
        let a = gen::uniform(4, 4, 0.5, 331);
        let bs: Vec<Matrix<f32>> = (0..8).map(|i| Matrix::random(4, 4, 332 + i)).collect();
        let cfg = SpmmConfig::heuristic::<f32>(4);
        for k in 1..=bs.len() {
            let refs: Vec<&Matrix<f32>> = bs[..k].iter().collect();
            let result = spmm_batched(&gpu, &a, &refs, cfg);
            assert!(
                result.overhead_saved_us() >= 0.0,
                "batch of {k}: saved {} us is negative (stream {} vs naive {})",
                result.overhead_saved_us(),
                result.stream_us,
                result.naive_us
            );
        }
    }

    #[test]
    fn batched_sddmm_shares_the_mask() {
        let gpu = Gpu::v100();
        let mask = gen::attention_mask(96, 16, 0.9, 326);
        let q1 = Matrix::<f32>::random(96, 32, 327);
        let k1 = Matrix::<f32>::random(96, 32, 328);
        let q2 = Matrix::<f32>::random(96, 32, 329);
        let k2 = Matrix::<f32>::random(96, 32, 330);
        let result = sddmm_batched(
            &gpu,
            &[(&q1, &k1), (&q2, &k2)],
            &mask,
            SddmmConfig::heuristic::<f32>(32),
        );
        for (out, (q, k)) in result.outputs.iter().zip([(&q1, &k1), (&q2, &k2)]) {
            let expect = reference::sddmm(q, k, &mask);
            assert!(out.same_pattern(&expect));
            for (a, b) in out.values().iter().zip(expect.values()) {
                assert!((a - b).abs() < 1e-3);
            }
        }
        assert_eq!(result.cache_hits, 1, "pair 2 replays pair 1's simulation");
    }

    /// The cache replays *statistics*, never values: every item's functional
    /// output must match its own reference even when served from the cache.
    #[test]
    fn cache_hits_do_not_cross_contaminate_outputs() {
        let gpu = Gpu::v100();
        let a = gen::uniform(48, 40, 0.6, 340);
        let bs: Vec<Matrix<f32>> = (0..4).map(|i| Matrix::random(40, 16, 341 + i)).collect();
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let result = spmm_batched(&gpu, &a, &refs, SpmmConfig::heuristic::<f32>(16));
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
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let first = spmm_batched_cached(&gpu, &cache, &a, &refs, cfg);
        assert_eq!(first.cache_hits, 2, "first call: items 2..3 hit");
        let second = spmm_batched_cached(&gpu, &cache, &a, &refs, cfg);
        assert_eq!(second.cache_hits, 3, "second call: every item hits");
        assert_eq!(first.stream_us, second.stream_us, "replay is bit-identical");
    }

    #[test]
    fn dispatched_batch_matches_reference_and_hits_cache() {
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        let a = gen::uniform(64, 48, 0.7, 370);
        let bs: Vec<Matrix<f32>> = (0..3).map(|i| Matrix::random(48, 32, 371 + i)).collect();
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let policy = DispatchPolicy::default();
        let first = spmm_batched_dispatch(&gpu, &cache, &a, &refs, cfg, &policy).unwrap();
        assert_eq!(first.outputs.len(), 3);
        assert_eq!(first.degraded(), 0, "clean run serves from Sputnik rung");
        assert!(first.reports.iter().all(|r| r.clean()));
        for (out, b) in first.outputs.iter().zip(&bs) {
            assert!(out.max_abs_diff(&reference::spmm(&a, b)) < 1e-3);
        }
        assert_eq!(first.cache_hits, 2, "items 2..3 replay item 1");
        assert!(first.stream_us <= first.naive_us);
        let second = spmm_batched_dispatch(&gpu, &cache, &a, &refs, cfg, &policy).unwrap();
        assert_eq!(second.cache_hits, 3, "warm window: every item hits");
        assert_eq!(first.stream_us, second.stream_us, "replay is bit-identical");
    }

    /// The point of the dispatched window: a fault plan that would abort
    /// [`spmm_batched`] degrades individual items instead, every item lands
    /// on a rung, and the outputs stay correct.
    #[test]
    fn dispatched_batch_survives_faults_per_item() {
        let gpu = Gpu::v100()
            .with_fault_plan(FaultPlan::fail_first(2, FaultKind::EccError).matching("sputnik"));
        let cache = LaunchCache::new();
        let a = gen::uniform(64, 48, 0.7, 380);
        let bs: Vec<Matrix<f32>> = (0..3).map(|i| Matrix::random(48, 32, 381 + i)).collect();
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let result =
            spmm_batched_dispatch(&gpu, &cache, &a, &refs, cfg, &DispatchPolicy::default())
                .expect("faults degrade, never error");
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

    /// Satellite regression: batched launches under a fault plan bypass the
    /// launch cache silently inside the launcher — the batch loops must
    /// record a per-item trace instant so chaos runs can audit exactly which
    /// items consumed fault-schedule indices.
    #[test]
    fn fault_plan_bypass_leaves_per_item_trace_instants() {
        use gpu_sim::trace;
        let a = gen::uniform(48, 40, 0.6, 400);
        let bs: Vec<Matrix<f32>> = (0..4).map(|i| Matrix::random(40, 16, 401 + i)).collect();
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let mask = gen::attention_mask(48, 8, 0.9, 405);
        let q = Matrix::<f32>::random(48, 16, 406);
        let k = Matrix::<f32>::random(48, 16, 407);
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::none());

        trace::enable();
        spmm_batched(&gpu, &a, &refs, SpmmConfig::heuristic::<f32>(16));
        sddmm_batched(
            &gpu,
            &[(&q, &k), (&q, &k)],
            &mask,
            SddmmConfig::heuristic::<f32>(16),
        );
        let events = trace::disable();

        // The recorder is process-global (other tests may append events
        // concurrently), so assert on the presence of our items rather than
        // exact counts.
        let bypasses: Vec<&str> = events
            .iter()
            .filter(|e| e.cat == "batched")
            .map(|e| e.name.as_str())
            .collect();
        for i in 0..4 {
            let want = format!("fault-plan bypass: spmm item {i} simulated in full");
            assert!(
                bypasses.iter().any(|n| **n == want),
                "missing instant '{want}' in {bypasses:?}"
            );
        }
        for i in 0..2 {
            let want = format!("fault-plan bypass: sddmm item {i} simulated in full");
            assert!(
                bypasses.iter().any(|n| **n == want),
                "missing instant '{want}' in {bypasses:?}"
            );
        }
    }

    /// Fault-plan GPUs must bypass the batch cache (fault schedules consume
    /// per-launch indices): every launch simulates, and scheduled faults
    /// still fire at their exact index.
    #[test]
    fn fault_plan_bypasses_batch_cache() {
        let a = gen::uniform(64, 48, 0.7, 360);
        let bs: Vec<Matrix<f32>> = (0..3).map(|i| Matrix::random(48, 32, 361 + i)).collect();
        let refs: Vec<&Matrix<f32>> = bs.iter().collect();
        let cfg = SpmmConfig::heuristic::<f32>(32);

        // An armed-but-quiet plan: the cache must still be bypassed.
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::none());
        let result = spmm_batched(&gpu, &a, &refs, cfg);
        assert_eq!(result.cache_hits, 0, "no cache service under a fault plan");
        assert_eq!(
            gpu.fault_plan().map(FaultPlan::launches_observed),
            Some(3),
            "every batched launch consults the schedule"
        );

        // A plan that kills the first launch: the batch must panic (the
        // stream uses the panicking launch path), proving launches were not
        // served from a cache that would skip the fault.
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::fail_first(1, FaultKind::EccError));
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            spmm_batched(&gpu, &a, &refs, cfg)
        }));
        assert!(killed.is_err(), "scheduled fault must abort the batch");
    }
}
