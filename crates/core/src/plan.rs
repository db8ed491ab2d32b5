//! Launch-plan IR and fusion planner for the sparse-attention pipeline.
//!
//! The attention forward pass is a chain of launches over one shared CSR
//! topology: SDDMM scores, a logit scale, the sparse softmax, and the
//! context SpMM. This module represents that chain as data ([`PlanOp`]),
//! lets the [`FusionPlanner`] merge adjacent ops into the fused
//! [`SddmmSoftmaxSpmmKernel`] when the merge is provably legal, and falls
//! back to the bit-identical three-launch pipeline otherwise.
//!
//! **Legality rule.** A merge is legal when the fused kernel's declared
//! [`StaticFacts`](gpu_sim::StaticFacts) survive the static auditor on the
//! target device — in particular the per-row staging footprint
//! ([`gpu_sim::fused::staging_bytes`]: the scores row plus one index strip)
//! must fit the device's shared-memory capacity. The planner audits a
//! cost-only probe of the candidate kernel and fuses only on a
//! refutation-free audit, so an oversized topology takes the unfused path
//! without ever building a refutable launch.
//!
//! **Bit-exactness.** The fused kernel's functional body replays the exact
//! per-element `mul_add` chains of the three separate kernels (see
//! `gpu_sim::fused`), so the planner's decision is invisible to the
//! numbers: `fusion_equivalence` pins bitwise equality either way.
//!
//! Fused launches flow through the full static-audit → sanitizer →
//! [`LaunchCache`] funnel. The cache key gains a plan-shape component: the
//! op chain and stage tiles are baked into the kernel name, and the
//! fingerprint mixes the mask topology with the problem shape, the scale
//! bits, and the plan tag.

use crate::config::{SddmmConfig, SpmmConfig};
use crate::error::SputnikError;
use crate::sddmm::{mask_fingerprint, sddmm_profile, sddmm_profile_cached, try_sddmm};
use crate::softmax::{sparse_softmax_scaled, sparse_softmax_scaled_profile};
use crate::spmm::{require_finite, spmm_profile, spmm_profile_cached, try_spmm};
use crate::tune::AutoTuner;
use gpu_sim::{
    trace, Gpu, Kernel, Launch, LaunchCache, Launched, SanitizerReport, SddmmSoftmaxSpmmKernel,
    Verdict,
};
use sparse::{CsrMatrix, Matrix};

/// One node of the launch-plan IR: an operation over the shared mask
/// topology, in pipeline order.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Sampled dense-dense matmul producing the scores at the mask's
    /// nonzero positions.
    Sddmm { cfg: SddmmConfig },
    /// Pointwise scale of the current intermediate (attention's
    /// `1/sqrt(d)`).
    Scale { factor: f32 },
    /// Row-wise softmax over the nonzero values.
    SparseSoftmax,
    /// Sparse-matrix × dense-matrix context product.
    Spmm { cfg: SpmmConfig },
}

/// Configs shared by the functional and profile attention paths — the one
/// place both consult, so they can never diverge (previously the profile
/// path rebuilt heuristics while the functional path could hit the
/// [`AutoTuner`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionConfigs {
    pub sddmm: SddmmConfig,
    pub spmm: SpmmConfig,
}

/// Select the attention pipeline's kernel configs. With a tuner, the SpMM
/// config comes from the [`AutoTuner`] (through its persistence/memo path,
/// and through the [`LaunchCache`] when one is supplied); otherwise the
/// shape heuristics. Both `sparse_attention_fused` and its profile twin
/// call this — pinned by `profile_and_functional_pick_same_configs`.
pub fn attention_configs(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    tuner: Option<&mut AutoTuner>,
    mask: &CsrMatrix<f32>,
    k: usize,
    n: usize,
) -> AttentionConfigs {
    let sddmm = SddmmConfig::heuristic::<f32>(k);
    let spmm = match tuner {
        Some(t) => match cache {
            Some(c) => t.tune_cached(gpu, c, mask, n).config,
            None => t.tune(gpu, mask, n).config,
        },
        None => SpmmConfig::heuristic::<f32>(n),
    };
    AttentionConfigs { sddmm, spmm }
}

/// The planner's verdict for one op chain on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionDecision {
    /// Whether the chain collapses to the fused kernel.
    pub fused: bool,
    /// The fused kernel's per-row staging footprint (scores row + index
    /// strip), fused or not.
    pub staging_bytes: u64,
    /// The device's per-block shared-memory capacity the footprint was
    /// checked against.
    pub smem_capacity: u32,
    /// Why the decision came out this way (audit detail on refusal).
    pub reason: String,
    /// Plan-shape tag baked into the fused launch name — the cache-key
    /// component distinguishing plan shapes.
    pub plan_tag: String,
}

/// Greedy fusion planner over [`PlanOp`] chains.
pub struct FusionPlanner;

/// The canonical fusable window: SDDMM, optional scale folded into the
/// softmax, softmax, SpMM.
struct Window {
    sddmm: SddmmConfig,
    spmm: SpmmConfig,
    scale: f32,
}

fn fusable_window(ops: &[PlanOp]) -> Option<Window> {
    match ops {
        [PlanOp::Sddmm { cfg: sd }, PlanOp::Scale { factor }, PlanOp::SparseSoftmax, PlanOp::Spmm { cfg: sp }] => {
            Some(Window {
                sddmm: *sd,
                spmm: *sp,
                scale: *factor,
            })
        }
        [PlanOp::Sddmm { cfg: sd }, PlanOp::SparseSoftmax, PlanOp::Spmm { cfg: sp }] => {
            Some(Window {
                sddmm: *sd,
                spmm: *sp,
                scale: 1.0,
            })
        }
        _ => None,
    }
}

/// The plan-shape tag for a fusable window: stage tiles + scale presence.
fn plan_tag(w: &Window) -> String {
    format!("s{}x{}", w.sddmm.block_items_x, w.spmm.block_items_x)
}

impl FusionPlanner {
    /// Decide whether `ops` (in pipeline order over `mask`) fuse on `gpu`.
    ///
    /// The greedy merge folds a `Scale` into the adjacent softmax
    /// unconditionally (it is a pointwise read transform), then merges the
    /// `[Sddmm, SparseSoftmax, Spmm]` window into the fused kernel iff the
    /// static audit of a cost-only probe proves every check class — which
    /// on a single-warp block reduces to the staging footprint fitting the
    /// device's shared memory. Anything else stays unfused.
    pub fn plan(
        gpu: &Gpu,
        ops: &[PlanOp],
        mask: &CsrMatrix<f32>,
        k: usize,
        n: usize,
    ) -> FusionDecision {
        let smem_capacity = gpu.device().smem_per_block_max;
        let Some(w) = fusable_window(ops) else {
            return FusionDecision {
                fused: false,
                staging_bytes: 0,
                smem_capacity,
                reason: "op chain is not the SDDMM/softmax/SpMM window".into(),
                plan_tag: String::new(),
            };
        };
        let tag = plan_tag(&w);
        let staging =
            gpu_sim::fused::staging_bytes(mask.max_row_len(), w.sddmm.block_items_x as usize);
        let probe = SddmmSoftmaxSpmmKernel::<f32>::for_profile(
            mask,
            k,
            n,
            w.scale,
            w.sddmm.block_items_x as usize,
            w.spmm.block_items_x as usize,
            tag.clone(),
        );
        let audit = gpu.audit(&probe);
        match audit
            .findings
            .iter()
            .find(|f| f.verdict == Verdict::Refuted)
        {
            Some(f) => FusionDecision {
                fused: false,
                staging_bytes: staging,
                smem_capacity,
                reason: format!("audit refuted {}: {}", f.class.name(), f.detail),
                plan_tag: tag,
            },
            None => FusionDecision {
                fused: true,
                staging_bytes: staging,
                smem_capacity,
                reason: format!("staging {staging} B fits {smem_capacity} B shared memory"),
                plan_tag: tag,
            },
        }
    }
}

/// Cache-key fingerprint for a fused attention launch: mask topology,
/// problem shape, scale bits, and the plan shape. (The plan tag is also in
/// the kernel name; folding it here keeps the key honest even if two plan
/// shapes ever shared a name.)
fn plan_fingerprint(mask: &CsrMatrix<f32>, k: usize, n: usize, scale: f32, tag: &str) -> u64 {
    let mut fp = gpu_sim::Fingerprint::new();
    fp.write_u64(mask_fingerprint(mask, k));
    fp.write_u64(n as u64);
    fp.write_u64(scale.to_bits() as u64);
    for b in tag.as_bytes() {
        fp.write_u64(*b as u64);
    }
    fp.finish()
}

/// Timing of one planned attention run: either one fused launch
/// (`fused_us`) or the three-launch breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct FusedAttentionTime {
    pub fused: bool,
    pub scores_us: f64,
    pub softmax_us: f64,
    pub context_us: f64,
    pub fused_us: f64,
    /// Simulated launches issued (1 fused, 3 unfused).
    pub launches: usize,
    /// Launches served from the [`LaunchCache`].
    pub cache_hits: usize,
}

impl FusedAttentionTime {
    pub fn total_us(&self) -> f64 {
        self.scores_us + self.softmax_us + self.context_us + self.fused_us
    }
}

/// The result of a planned (fused-when-legal) attention run.
#[derive(Debug)]
pub struct FusedAttention {
    /// The `rows x n` context, bit-identical fused or unfused.
    pub context: Matrix<f32>,
    pub time: FusedAttentionTime,
    pub decision: FusionDecision,
    pub configs: AttentionConfigs,
    /// The sanitizer report of the fused launch (`None` on the unfused
    /// path and on cache-miss-free replays of an unsanitized GPU).
    pub report: Option<SanitizerReport>,
}

/// Planned sparse attention: plan the `[Sddmm, Scale, SparseSoftmax,
/// Spmm]` chain, launch the fused kernel through the static-audit →
/// sanitizer → [`LaunchCache`] funnel when the planner proves the merge,
/// and fall back to the three-launch pipeline (scale folded into the
/// softmax kernel) otherwise. `q` is `rows x k`, `kmat` is `cols x k`
/// (the SDDMM's transposed-RHS form), `v` is `cols x n`.
#[allow(clippy::too_many_arguments)]
pub fn try_sparse_attention_fused(
    gpu: &Gpu,
    q: &Matrix<f32>,
    kmat: &Matrix<f32>,
    v: &Matrix<f32>,
    mask: &CsrMatrix<f32>,
    scale: f32,
    cache: Option<&LaunchCache>,
    tuner: Option<&mut AutoTuner>,
) -> Result<FusedAttention, SputnikError> {
    check_shapes(q, kmat, v, mask)?;
    require_finite("q", q.as_slice())?;
    require_finite("k", kmat.as_slice())?;
    require_finite("v", v.as_slice())?;
    let (d, n) = (q.cols(), v.cols());
    let configs = attention_configs(gpu, cache, tuner, mask, d, n);
    let ops = plan_ops(&configs, scale);
    let decision = FusionPlanner::plan(gpu, &ops, mask, d, n);

    if decision.fused {
        let mut context = Matrix::<f32>::zeros(mask.rows(), n);
        let launched = {
            let kernel = SddmmSoftmaxSpmmKernel::new(
                q,
                kmat,
                v,
                mask,
                context.as_mut_slice(),
                scale,
                configs.sddmm.block_items_x as usize,
                configs.spmm.block_items_x as usize,
                decision.plan_tag.clone(),
            );
            let req = Launch {
                cache: cache.map(|c| (c, plan_fingerprint(mask, d, n, scale, &decision.plan_tag))),
                ..Launch::SANITIZE
            };
            fusion_span(gpu, &req, &kernel)?
        };
        Ok(FusedAttention {
            context,
            time: FusedAttentionTime {
                fused: true,
                fused_us: launched.stats.time_us,
                launches: 1,
                cache_hits: usize::from(launched.hit),
                ..Default::default()
            },
            decision,
            configs,
            report: launched.report,
        })
    } else {
        let (context, time) = sparse_attention_unfused(gpu, q, kmat, v, mask, scale, &configs)?;
        Ok(FusedAttention {
            context,
            time,
            decision,
            configs,
            report: None,
        })
    }
}

/// Panicking wrapper over [`try_sparse_attention_fused`].
#[allow(clippy::too_many_arguments)]
pub fn sparse_attention_fused(
    gpu: &Gpu,
    q: &Matrix<f32>,
    kmat: &Matrix<f32>,
    v: &Matrix<f32>,
    mask: &CsrMatrix<f32>,
    scale: f32,
    cache: Option<&LaunchCache>,
    tuner: Option<&mut AutoTuner>,
) -> FusedAttention {
    try_sparse_attention_fused(gpu, q, kmat, v, mask, scale, cache, tuner)
        .unwrap_or_else(|e| panic!("sparse_attention_fused: {e}"))
}

/// The three-launch reference pipeline with the scale folded into the
/// softmax kernel: SDDMM → scaled softmax → SpMM. This is both the
/// planner's fallback and the bit-exactness reference the fused kernel is
/// pinned against.
pub fn sparse_attention_unfused(
    gpu: &Gpu,
    q: &Matrix<f32>,
    kmat: &Matrix<f32>,
    v: &Matrix<f32>,
    mask: &CsrMatrix<f32>,
    scale: f32,
    configs: &AttentionConfigs,
) -> Result<(Matrix<f32>, FusedAttentionTime), SputnikError> {
    check_shapes(q, kmat, v, mask)?;
    let (scores, s1) = try_sddmm(gpu, q, kmat, mask, configs.sddmm)?;
    let (probs, s2) = sparse_softmax_scaled(gpu, &scores, scale);
    let (context, s3) = try_spmm(gpu, &probs, v, configs.spmm)?;
    Ok((
        context,
        FusedAttentionTime {
            fused: false,
            scores_us: s1.time_us,
            softmax_us: s2.time_us,
            context_us: s3.time_us,
            launches: 3,
            ..Default::default()
        },
    ))
}

/// Cost-only twin of [`try_sparse_attention_fused`]: same config
/// selection, same planner, same audit gate and [`LaunchCache`], no
/// functional work.
pub fn sparse_attention_fused_profile(
    gpu: &Gpu,
    mask: &CsrMatrix<f32>,
    k: usize,
    n: usize,
    scale: f32,
    cache: Option<&LaunchCache>,
    tuner: Option<&mut AutoTuner>,
) -> Result<(FusedAttentionTime, FusionDecision, AttentionConfigs), SputnikError> {
    let configs = attention_configs(gpu, cache, tuner, mask, k, n);
    let ops = plan_ops(&configs, scale);
    let decision = FusionPlanner::plan(gpu, &ops, mask, k, n);

    if decision.fused {
        let kernel = SddmmSoftmaxSpmmKernel::<f32>::for_profile(
            mask,
            k,
            n,
            scale,
            configs.sddmm.block_items_x as usize,
            configs.spmm.block_items_x as usize,
            decision.plan_tag.clone(),
        );
        let req = Launch {
            cache: cache.map(|c| (c, plan_fingerprint(mask, k, n, scale, &decision.plan_tag))),
            ..Launch::PROFILE
        };
        let launched = fusion_span(gpu, &req, &kernel)?;
        Ok((
            FusedAttentionTime {
                fused: true,
                fused_us: launched.stats.time_us,
                launches: 1,
                cache_hits: usize::from(launched.hit),
                ..Default::default()
            },
            decision,
            configs,
        ))
    } else {
        let ((s1, h1), s2, (s3, h3)) = match cache {
            Some(c) => (
                sddmm_profile_cached(gpu, c, mask, k, configs.sddmm),
                sparse_softmax_scaled_profile(gpu, mask, scale),
                spmm_profile_cached(gpu, c, mask, mask.cols(), n, configs.spmm),
            ),
            None => (
                (sddmm_profile(gpu, mask, k, configs.sddmm), false),
                sparse_softmax_scaled_profile(gpu, mask, scale),
                (spmm_profile(gpu, mask, mask.cols(), n, configs.spmm), false),
            ),
        };
        Ok((
            FusedAttentionTime {
                fused: false,
                scores_us: s1.time_us,
                softmax_us: s2.time_us,
                context_us: s3.time_us,
                launches: 3,
                cache_hits: usize::from(h1) + usize::from(h3),
                ..Default::default()
            },
            decision,
            configs,
        ))
    }
}

/// Run the fused kernel's request inside a `fusion` trace span on the
/// device's track.
fn fusion_span(gpu: &Gpu, req: &Launch<'_>, kernel: &dyn Kernel) -> Result<Launched, SputnikError> {
    let track = gpu.device().name.clone();
    let traced = trace::enabled();
    if traced {
        trace::begin_span("fusion", &track, &kernel.name());
    }
    let result = gpu.run(req, kernel);
    if traced {
        trace::end_span(&track);
    }
    Ok(result?)
}

/// The attention pipeline's canonical op chain.
fn plan_ops(configs: &AttentionConfigs, scale: f32) -> [PlanOp; 4] {
    [
        PlanOp::Sddmm { cfg: configs.sddmm },
        PlanOp::Scale { factor: scale },
        PlanOp::SparseSoftmax,
        PlanOp::Spmm { cfg: configs.spmm },
    ]
}

fn check_shapes(
    q: &Matrix<f32>,
    kmat: &Matrix<f32>,
    v: &Matrix<f32>,
    mask: &CsrMatrix<f32>,
) -> Result<(), SputnikError> {
    let ok = q.rows() == mask.rows()
        && kmat.rows() == mask.cols()
        && q.cols() == kmat.cols()
        && v.rows() == mask.cols();
    if ok {
        Ok(())
    } else {
        Err(SputnikError::ShapeMismatch {
            context: "sparse_attention_fused",
            expected: format!(
                "q {}x{{k}}, k {}x{{k}}, v {}x{{n}} for mask {}x{}",
                mask.rows(),
                mask.cols(),
                mask.cols(),
                mask.rows(),
                mask.cols()
            ),
            found: format!(
                "q {}x{}, k {}x{}, v {}x{}",
                q.rows(),
                q.cols(),
                kmat.rows(),
                kmat.cols(),
                v.rows(),
                v.cols()
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen;

    fn qkv(seq: usize, ctx: usize, d: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
        (
            Matrix::<f32>::random(seq, d, seed),
            Matrix::<f32>::random(ctx, d, seed + 1),
            Matrix::<f32>::random(ctx, d, seed + 2),
        )
    }

    #[test]
    fn planner_fuses_small_topology_and_matches_unfused_bitwise() {
        let mask = gen::attention_mask(96, 8, 0.85, 900);
        let (q, k, v) = qkv(96, 96, 16, 901);
        let scale = 1.0 / (16f32).sqrt();
        let gpu = Gpu::v100();
        let run = sparse_attention_fused(&gpu, &q, &k, &v, &mask, scale, None, None);
        assert!(
            run.decision.fused,
            "small mask must fuse: {}",
            run.decision.reason
        );
        assert_eq!(run.time.launches, 1);
        let (want, _) =
            sparse_attention_unfused(&gpu, &q, &k, &v, &mask, scale, &run.configs).unwrap();
        assert_eq!(
            run.context.as_slice(),
            want.as_slice(),
            "fusion changed bits"
        );
        let report = run.report.unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn oversized_staging_takes_unfused_path() {
        // One row with ~30k nonzeros: staging ~120 KB exceeds the V100's
        // 96 KiB shared memory, so the planner must refuse the merge.
        let mask = gen::uniform(4, 32 * 1024, 0.1, 902);
        assert!(
            gpu_sim::fused::staging_bytes(mask.max_row_len(), 32)
                > Gpu::v100().device().smem_per_block_max as u64,
            "probe topology must actually be oversized"
        );
        let (q, k, v) = qkv(4, 32 * 1024, 8, 903);
        let gpu = Gpu::v100();
        let run = sparse_attention_fused(&gpu, &q, &k, &v, &mask, 0.5, None, None);
        assert!(!run.decision.fused);
        assert!(
            run.decision.reason.contains("shared_capacity"),
            "{}",
            run.decision.reason
        );
        assert_eq!(run.time.launches, 3);
        let (want, _) =
            sparse_attention_unfused(&gpu, &q, &k, &v, &mask, 0.5, &run.configs).unwrap();
        assert_eq!(run.context.as_slice(), want.as_slice());
    }

    #[test]
    fn profile_and_functional_pick_same_configs() {
        // A problem class where the tuner's winner may differ from the
        // heuristic: both paths must consult the same tuner and agree.
        let mask = gen::uniform(128, 128, 0.9, 904);
        let (q, k, v) = qkv(128, 128, 32, 905);
        let gpu = Gpu::v100();
        let cache = LaunchCache::default();
        let mut tuner = AutoTuner::default();
        let run = sparse_attention_fused(
            &gpu,
            &q,
            &k,
            &v,
            &mask,
            0.25,
            Some(&cache),
            Some(&mut tuner),
        );
        let (_, _, profile_cfgs) = sparse_attention_fused_profile(
            &gpu,
            &mask,
            32,
            32,
            0.25,
            Some(&cache),
            Some(&mut tuner),
        )
        .unwrap();
        assert_eq!(
            run.configs, profile_cfgs,
            "functional and profile configs diverged"
        );
        // And the no-tuner heuristic path agrees with itself too.
        let heuristic = attention_configs(&gpu, None, None, &mask, 32, 32);
        let (_, _, heuristic_profile) =
            sparse_attention_fused_profile(&gpu, &mask, 32, 32, 0.25, None, None).unwrap();
        assert_eq!(heuristic, heuristic_profile);
    }

    #[test]
    fn fused_replay_hits_cache() {
        let mask = gen::attention_mask(64, 8, 0.8, 906);
        let (q, k, v) = qkv(64, 64, 16, 907);
        let gpu = Gpu::v100();
        let cache = LaunchCache::default();
        let first = sparse_attention_fused(&gpu, &q, &k, &v, &mask, 0.25, Some(&cache), None);
        assert_eq!(first.time.cache_hits, 0);
        let second = sparse_attention_fused(&gpu, &q, &k, &v, &mask, 0.25, Some(&cache), None);
        assert_eq!(
            second.time.cache_hits, 1,
            "replay must be served from the cache"
        );
        assert_eq!(first.context.as_slice(), second.context.as_slice());
        // A different plan shape (different scale) must not alias the key.
        let third = sparse_attention_fused(&gpu, &q, &k, &v, &mask, 0.5, Some(&cache), None);
        assert_eq!(third.time.cache_hits, 0, "scale is part of the cache key");
    }

    #[test]
    fn non_canonical_chain_stays_unfused() {
        let mask = gen::attention_mask(32, 4, 0.8, 908);
        let gpu = Gpu::v100();
        let decision = FusionPlanner::plan(
            &gpu,
            &[
                PlanOp::SparseSoftmax,
                PlanOp::Spmm {
                    cfg: SpmmConfig::heuristic::<f32>(16),
                },
            ],
            &mask,
            16,
            16,
        );
        assert!(!decision.fused);
    }
}
