//! Joint activation x weight sparsity: SpMM that skips the work of
//! all-zero activation tiles.
//!
//! The Sputnik SpMM exploits sparsity in the *weight* operand A only; the
//! dense activation operand B is loaded unconditionally, one strip per
//! stored nonzero. When activations are themselves sparse (ReLU networks
//! zero most of B at inference time), every strip whose source tile of B is
//! all-zero contributes nothing — but the dense kernel still pays its load
//! and FMA.
//!
//! [`SpmmKernel::with_pattern`] gives the SpMM kernel a precomputed
//! [`sparse::PatternLut`] — a bitmap of 8x32 (fine) or 64x32 (coarse) zero
//! blocks of B — and the kernel skips the B-load + FMA for any stored
//! nonzero whose target tile the LUT marks dead. The skip is
//! *warp-uniform*: the kernel's column strip is constrained to lie inside
//! one 32-column LUT tile (`block_items_x` must divide 32), so every lane of
//! a subwarp probes the same LUT bit and the whole warp takes the same
//! branch — one amortized probe per strip, no divergence penalty. This is
//! the classic joint-sparsity design: pattern lookups cost one bit test
//! where the saved work is a global load plus `vector_width` FMAs per lane.
//!
//! ## Bit identity, not approximate equality
//!
//! Skipping is sound at the *bit* level, not merely numerically:
//!
//! * A tile is marked dead only if every element's f32 bits are exactly
//!   `+0.0` ([`sparse::PatternLut::build`]; `-0.0` keeps a tile live).
//! * The accumulators start at `+0.0` and an fma chain seeded at `+0.0` can
//!   never produce `-0.0` (a round-to-nearest sum is `-0.0` only when both
//!   addends are `-0.0`), so for a dead tile every skipped
//!   `fma(val, +0.0, acc)` would have returned `acc` bit-for-bit. (This is
//!   why a pattern rejects the accumulate epilogue, whose chain is seeded
//!   from the existing output.)
//! * With and without a pattern the kernel runs the *same* loop over the
//!   same subwarp iteration space: the pattern only supplies the
//!   column-liveness predicate that loop tests before each `mul_add`, and
//!   without a pattern that predicate is constantly true. The surviving
//!   elements therefore replay the exact per-element `mul_add` order.
//!
//! Therefore `joint_spmm` output is bit-identical to `spmm` output on the
//! same operands — asserted per-element in the tests and in the `jointwall`
//! bench gate, never within a tolerance.
//!
//! ## Cost model
//!
//! The A-side of the kernel is unchanged: values and indices are staged to
//! shared memory in full (the indices must be *read* to be probed), and the
//! warp-divergence model is the dense kernel's. Per strip the model adds
//! one gather of the distinct LUT words touched plus one bit-test
//! instruction per position, and then scales the inner-loop body — B-load
//! instructions, index-scaling, FMAs — by the strip's *union-live* count:
//! a position is executed iff at least one subwarp in the warp is live
//! there (dead positions are skipped warp-uniformly; a position where any
//! subwarp survives costs the whole warp an instruction slot, which is
//! exactly the lockstep-execution price the warp-uniform design accepts).
//! Per-subwarp B traffic and useful FLOPs count only that subwarp's own
//! live positions — a predicated-off lane moves no sectors. Without a
//! pattern every position is live, which is the dense kernel's trace.

use crate::config::SpmmConfig;
use crate::error::SputnikError;
use crate::spmm::{operand_fingerprint, require_finite, validate_config, SpmmKernel, SubwarpWork};
use gpu_sim::{Deferred, Fingerprint, Gpu, Launch, LaunchCache, LaunchStats};
use sparse::{CsrMatrix, Matrix, PatternLut, RowSwizzle, Scalar};

/// Liveness of one strip of the main loop, for one warp.
pub(crate) struct StripLiveness {
    /// Positions where at least one in-range subwarp is LUT-live — the
    /// warp-uniform execution count for the strip's inner body.
    pub(crate) union_live: u64,
    /// Distinct LUT word byte-addresses probed this strip (sorted).
    pub(crate) probe_addrs: Vec<u64>,
}

/// Per-warp liveness summary shared by the cost trace and the structural
/// signature, so both derive from identical inputs by construction.
pub(crate) struct WarpLiveness {
    pub(crate) strips: Vec<StripLiveness>,
    /// Per subwarp: (live positions in `[0, total)`,
    /// live positions in `[prefix, total)` = useful nonzeros).
    pub(crate) per_sub: Vec<(u64, u64)>,
}

/// The constraints a pattern adds to a valid SpMM configuration, for an
/// inner dimension `k` and dense width `n`.
pub(crate) fn validate_pattern(
    cfg: &SpmmConfig,
    k: usize,
    n: usize,
    lut: &PatternLut,
) -> Result<(), SputnikError> {
    if cfg.fused_bias_relu {
        return Err(SputnikError::IllegalConfig {
            reason: "joint-sparsity SpMM does not support the fused bias+ReLU epilogue".into(),
        });
    }
    if !32u32.is_multiple_of(cfg.block_items_x) {
        return Err(SputnikError::IllegalConfig {
            reason: format!(
                "warp-uniform probing requires block_items_x ({}) to divide the LUT's \
                 32-column tile: every output strip must lie inside one pattern tile",
                cfg.block_items_x
            ),
        });
    }
    if lut.rows() != k || lut.cols() != n {
        return Err(SputnikError::ShapeMismatch {
            expected: format!("pattern LUT over a {k}x{n} dense operand"),
            found: format!("{}x{}", lut.rows(), lut.cols()),
            context: "joint spmm pattern LUT",
        });
    }
    Ok(())
}

/// Liveness of every `bik`-long strip and every subwarp of one warp, for
/// the column strip at `n_off`. Liveness is a function of the *stored
/// indices* and the LUT only — never of values — so ROMA prefix positions
/// (whose values the functional path masks to zero) probe like any other
/// position and the result is identical between functional and profile
/// kernels.
pub(crate) fn warp_liveness<T: Scalar>(
    a: &CsrMatrix<T>,
    lut: &PatternLut,
    bik: usize,
    subs: &[SubwarpWork],
    n_off: usize,
) -> WarpLiveness {
    let nt = lut.ntile_of(n_off);
    let indices = a.col_indices();
    let max_total = subs.iter().map(|s| s.total).max().unwrap_or(0);
    let mut per_sub = vec![(0u64, 0u64); subs.len()];
    let mut strips = Vec::with_capacity(max_total.div_ceil(bik.max(1)));
    let mut base = 0usize;
    while base < max_total {
        let len = bik.min(max_total - base);
        let mut union_live = 0u64;
        let mut probe_addrs = Vec::new();
        for p in base..base + len {
            let mut any_live = false;
            for (s, sub) in subs.iter().enumerate() {
                if sub.row == usize::MAX || p >= sub.total {
                    continue;
                }
                let col = indices[sub.aligned_offset + p] as usize;
                let kt = lut.ktile_of(col);
                probe_addrs.push(lut.word_addr(kt, nt));
                if lut.is_live(kt, nt) {
                    any_live = true;
                    per_sub[s].0 += 1;
                    if p >= sub.prefix {
                        per_sub[s].1 += 1;
                    }
                }
            }
            union_live += u64::from(any_live);
        }
        probe_addrs.sort_unstable();
        probe_addrs.dedup();
        strips.push(StripLiveness {
            union_live,
            probe_addrs,
        });
        base += len;
    }
    WarpLiveness { strips, per_sub }
}

/// A joint-legal variant of the paper's kernel-selection heuristic: the
/// warp-uniform probe requires the column tile to divide the LUT's 32-column
/// tile, so the 64-wide tile the dense heuristic picks for large `n` is
/// clamped back to 32.
pub fn joint_heuristic<T: Scalar>(n: usize) -> SpmmConfig {
    let mut cfg = SpmmConfig::heuristic::<T>(n);
    if !32u32.is_multiple_of(cfg.block_items_x) {
        cfg.block_items_x = 32;
    }
    cfg
}

/// The launch-cache fingerprint for a joint problem: the dense-kernel
/// operand fingerprint (topology + `n`) mixed with the LUT's content
/// fingerprint — two LUTs over different activations must never collide.
fn joint_fingerprint<T: Scalar>(a: &CsrMatrix<T>, n: usize, lut: &PatternLut) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_u64(operand_fingerprint(a, n));
    fp.write_u64(lut.fingerprint());
    fp.finish()
}

/// Bump the joint-skip observability counters for one launch: LUT probes
/// issued / probes that hit dead tiles, into the global metrics registry
/// and (when tracing is on) the chrome-trace counter track.
fn record_skip_metrics<T: Scalar>(a: &CsrMatrix<T>, lut: &PatternLut) {
    let (total, dead) = lut.probe_stats(a);
    gpu_sim::metrics::global()
        .incr_many(&[("joint_tiles_total", total), ("joint_tiles_skipped", dead)]);
    if gpu_sim::trace::enabled() {
        gpu_sim::trace::counter("joint", "joint", "joint_tiles_total", total);
        gpu_sim::trace::counter("joint", "joint", "joint_tiles_skipped", dead);
    }
}

/// Run joint-sparsity SpMM on the simulated GPU: validates shapes, config
/// legality (including the warp-uniform tile constraint) and operand
/// finiteness, then launches an [`SpmmKernel::with_pattern`] kernel through
/// [`Gpu::run`] (audited, like every launch). Returns `(C, stats)`; the
/// output is bit-identical to [`crate::try_spmm`] on the same operands.
pub fn joint_spmm<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
    lut: &PatternLut,
    cfg: SpmmConfig,
) -> Result<(Matrix<T>, LaunchStats), SputnikError> {
    require_finite("a", a.values())?;
    require_finite("b", b.as_slice())?;
    let swizzle = RowSwizzle::new(a, cfg.row_swizzle);
    let mut out = Matrix::<T>::zeros(a.rows(), b.cols());
    let launched = {
        let kernel = SpmmKernel::try_new(a, b, &mut out, &swizzle, cfg)?.with_pattern(lut)?;
        gpu.run(&Launch::FUNCTIONAL, &kernel)?
    };
    record_skip_metrics(a, lut);
    Ok((out, launched.stats))
}

/// Profile joint SpMM (cost model only): needs the sparse topology and the
/// LUT, never the dense activations themselves. With a [`LaunchCache`] the
/// key mixes the sparse-topology fingerprint with the LUT fingerprint — the
/// skip pattern is a first-class problem dimension. Returns the stats plus
/// whether the cache served them. Shapes and config are validated before
/// the cache lookup; a hit builds neither the swizzle nor the kernel, and
/// only a simulated launch records the skip metrics.
pub fn joint_spmm_profile<T: Scalar>(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    a: &CsrMatrix<T>,
    b_rows: usize,
    n: usize,
    lut: &PatternLut,
    cfg: SpmmConfig,
) -> Result<(LaunchStats, bool), SputnikError> {
    if a.cols() != b_rows {
        return Err(SputnikError::ShapeMismatch {
            expected: format!("B with {} rows", a.cols()),
            found: format!("{b_rows} rows"),
            context: "spmm inner dimension",
        });
    }
    validate_config(&cfg, a.cols())?;
    validate_pattern(&cfg, a.cols(), n, lut)?;
    let target = Deferred::new(
        || SpmmKernel::<T>::launch_name(&cfg, Some(lut)),
        |run| {
            let swizzle = RowSwizzle::new(a, cfg.row_swizzle);
            let kernel = SpmmKernel::for_profile(a, n, &swizzle, cfg)
                .with_pattern(lut)
                .unwrap_or_else(|e| unreachable!("validated before the cache lookup: {e}"));
            run(&kernel);
        },
    );
    let req = Launch {
        cache: cache.map(|c| (c, joint_fingerprint(a, n, lut))),
        ..Launch::PROFILE
    };
    let launched = gpu.run(&req, &target)?;
    if !launched.hit {
        record_skip_metrics(a, lut);
    }
    Ok((launched.stats, launched.hit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::{spmm, spmm_profile, spmm_profile_cached};
    use sparse::{gen, PatternGranularity};

    /// Functional joint SpMM that panics on error.
    fn joint(
        gpu: &Gpu,
        a: &CsrMatrix<f32>,
        b: &Matrix<f32>,
        lut: &PatternLut,
        cfg: SpmmConfig,
    ) -> (Matrix<f32>, LaunchStats) {
        joint_spmm(gpu, a, b, lut, cfg).expect("valid joint launch")
    }

    /// Joint profile (optionally cached) that panics on error.
    fn profile(
        gpu: &Gpu,
        cache: Option<&LaunchCache>,
        a: &CsrMatrix<f32>,
        n: usize,
        lut: &PatternLut,
        cfg: SpmmConfig,
    ) -> (LaunchStats, bool) {
        joint_spmm_profile(gpu, cache, a, a.cols(), n, lut, cfg).expect("valid joint profile")
    }

    /// A cost-model-only pattern kernel.
    fn profile_kernel<'a>(
        a: &'a CsrMatrix<f32>,
        n: usize,
        swizzle: &'a RowSwizzle,
        lut: &'a PatternLut,
        cfg: SpmmConfig,
    ) -> Result<SpmmKernel<'a, f32>, SputnikError> {
        SpmmKernel::for_profile(a, n, swizzle, cfg).with_pattern(lut)
    }

    /// Build a weights/activations pair with real joint structure.
    fn problem(m: usize, k: usize, n: usize, zero_frac: f64) -> (CsrMatrix<f32>, Matrix<f32>) {
        let a = gen::uniform(m, k, 0.7, 11);
        let b = gen::activations(k, n, zero_frac, 23);
        (a, b)
    }

    fn assert_bit_identical(lhs: &Matrix<f32>, rhs: &Matrix<f32>, tag: &str) {
        assert_eq!(lhs.rows(), rhs.rows());
        assert_eq!(lhs.cols(), rhs.cols());
        for (i, (x, y)) in lhs.as_slice().iter().zip(rhs.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{tag}: element {i} differs: {x} vs {y}"
            );
        }
    }

    #[test]
    fn bit_identical_to_dense_kernel_across_configs() {
        let (a, b) = problem(48, 96, 64, 0.7);
        let gpu = Gpu::v100();
        let base = joint_heuristic::<f32>(64);
        let variants = [
            base,
            SpmmConfig {
                row_swizzle: false,
                ..base
            },
            SpmmConfig {
                vector_width: 1,
                roma: false,
                ..base
            },
            SpmmConfig {
                residue_unroll: false,
                ..base
            },
            SpmmConfig {
                index_prescale: false,
                ..base
            },
            SpmmConfig {
                vector_width: 2,
                ..base
            },
            SpmmConfig {
                block_items_y: 1,
                ..base
            },
            SpmmConfig {
                block_items_y: 8,
                ..base
            },
            SpmmConfig {
                block_items_x: 8,
                vector_width: 2,
                ..base
            },
            SpmmConfig {
                block_items_x: 16,
                ..base
            },
        ];
        for g in [PatternGranularity::Fine, PatternGranularity::Coarse] {
            let lut = PatternLut::build(&b, g);
            assert!(
                lut.tiles_dead() > 0,
                "test needs real skips to be meaningful"
            );
            for cfg in variants {
                let (dense, _) = spmm(&gpu, &a, &b, cfg);
                let (joint, stats) = joint(&gpu, &a, &b, &lut, cfg);
                assert_bit_identical(&joint, &dense, &format!("{g:?} {}", cfg.tag()));
                assert!(stats.time_us > 0.0);
            }
        }
    }

    #[test]
    fn bit_identical_on_ragged_shapes_and_densities() {
        let gpu = Gpu::v100();
        for (m, k, n) in [(37usize, 53usize, 19usize), (13, 130, 37), (1, 64, 32)] {
            for zero_frac in [0.0, 0.5, 0.9] {
                let (a, b) = problem(m, k, n, zero_frac);
                let cfg = joint_heuristic::<f32>(n);
                for g in [PatternGranularity::Fine, PatternGranularity::Coarse] {
                    let lut = PatternLut::build(&b, g);
                    let (dense, _) = spmm(&gpu, &a, &b, cfg);
                    let (joint, _) = joint(&gpu, &a, &b, &lut, cfg);
                    assert_bit_identical(&joint, &dense, &format!("{m}x{k}x{n} zf={zero_frac}"));
                }
            }
        }
    }

    #[test]
    fn negative_zero_activations_stay_live_and_identical() {
        // -0.0 marks a tile live, so a B full of negative zeros must take
        // the unskipped path and still match the dense kernel exactly.
        let a = gen::uniform(16, 32, 0.5, 3);
        let b = Matrix::<f32>::from_fn(32, 32, |r, c| if (r + c) % 3 == 0 { -0.0 } else { 0.25 });
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        assert_eq!(lut.tiles_dead(), 0);
        let gpu = Gpu::v100();
        let cfg = SpmmConfig::default();
        let (dense, _) = spmm(&gpu, &a, &b, cfg);
        let (joint, _) = joint(&gpu, &a, &b, &lut, cfg);
        assert_bit_identical(&joint, &dense, "neg-zero");
    }

    #[test]
    fn profile_matches_launch_timing() {
        let (a, b) = problem(64, 128, 64, 0.75);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        let gpu = Gpu::v100();
        let cfg = SpmmConfig::default();
        let (_, launch) = joint(&gpu, &a, &b, &lut, cfg);
        let (profile, _) = profile(&gpu, None, &a, 64, &lut, cfg);
        assert_eq!(launch.instructions, profile.instructions);
        assert!((launch.time_us - profile.time_us).abs() < 1e-9);
    }

    #[test]
    fn dedup_profile_is_bit_identical() {
        for (m, k, n, zf) in [(64usize, 96usize, 32usize, 0.7), (128, 128, 128, 0.85)] {
            let a = gen::with_cov(m, k, 0.8, 0.8, 21);
            let b = gen::activations(k, n, zf, 9);
            for g in [PatternGranularity::Fine, PatternGranularity::Coarse] {
                let lut = PatternLut::build(&b, g);
                let swizzle = RowSwizzle::by_length_desc(&a);
                let cfg = SpmmConfig::default();
                let kernel =
                    profile_kernel(&a, n, &swizzle, &lut, cfg).expect("valid profile kernel");
                let fast = Gpu::v100().profile(&kernel);
                let brute = Gpu::v100().with_block_dedup(false).profile(&kernel);
                assert_eq!(fast, brute, "{m}x{k} n={n} {g:?}");
            }
        }
    }

    #[test]
    fn cached_profile_replays_identical_stats() {
        let (a, b) = problem(64, 128, 64, 0.7);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        let gpu = Gpu::v100();
        let cache = gpu_sim::LaunchCache::new();
        let cfg = SpmmConfig::default();
        let (first, hit1) = profile(&gpu, Some(&cache), &a, 64, &lut, cfg);
        let (second, hit2) = profile(&gpu, Some(&cache), &a, 64, &lut, cfg);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first, second);
        // A different LUT over the same topology is a different problem.
        let b2 = gen::activations(128, 64, 0.3, 99);
        let lut2 = PatternLut::build(&b2, PatternGranularity::Fine);
        let (_, hit3) = profile(&gpu, Some(&cache), &a, 64, &lut2, cfg);
        assert!(!hit3, "LUT content must be part of the cache key");
    }

    #[test]
    fn dense_and_joint_profiles_never_share_a_cache_entry() {
        let (a, b) = problem(64, 128, 64, 0.7);
        let gpu = Gpu::v100();
        let cfg = SpmmConfig::default();
        for g in [PatternGranularity::Fine, PatternGranularity::Coarse] {
            let lut = PatternLut::build(&b, g);
            let cache = LaunchCache::new();
            let (dense, dense_hit) = spmm_profile_cached(&gpu, &cache, &a, 128, 64, cfg);
            let (joint, joint_hit) = profile(&gpu, Some(&cache), &a, 64, &lut, cfg);
            assert!(
                !dense_hit && !joint_hit,
                "{g:?}: a cold dense+joint pair hit"
            );
            assert_ne!(dense, joint, "{g:?}: joint must not replay the dense stats");
            assert_eq!(cache.hits(), 0);
            assert_eq!(cache.misses(), 2);
            // Warm: each problem hits only its own entry.
            assert_eq!(
                spmm_profile_cached(&gpu, &cache, &a, 128, 64, cfg),
                (dense, true)
            );
            assert_eq!(
                profile(&gpu, Some(&cache), &a, 64, &lut, cfg),
                (joint, true)
            );
        }
    }

    #[test]
    fn static_audit_is_clean() {
        let (a, b) = problem(48, 96, 64, 0.7);
        let lut = PatternLut::build(&b, PatternGranularity::Coarse);
        let swizzle = RowSwizzle::by_length_desc(&a);
        let kernel = profile_kernel(&a, 64, &swizzle, &lut, SpmmConfig::default())
            .expect("valid profile kernel");
        let audit = Gpu::v100().audit(&kernel);
        assert!(
            audit.refutation().is_none(),
            "joint kernel must pass the static auditor: {audit:?}"
        );
    }

    #[test]
    fn illegal_configurations_are_rejected() {
        let (a, b) = problem(32, 64, 128, 0.5);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        let swizzle = RowSwizzle::by_length_desc(&a);
        // 64-wide strips span two LUT n-tiles: the probe would diverge.
        let wide = SpmmConfig {
            block_items_x: 64,
            block_items_y: 2,
            ..SpmmConfig::default()
        };
        assert!(matches!(
            profile_kernel(&a, 128, &swizzle, &lut, wide),
            Err(SputnikError::IllegalConfig { .. })
        ));
        // The fused epilogue is a dense-kernel feature.
        let fused = SpmmConfig {
            fused_bias_relu: true,
            ..SpmmConfig::default()
        };
        assert!(matches!(
            profile_kernel(&a, 128, &swizzle, &lut, fused),
            Err(SputnikError::IllegalConfig { .. })
        ));
        // A LUT built over a differently-shaped operand.
        let other = PatternLut::build(&gen::activations(64, 32, 0.5, 1), PatternGranularity::Fine);
        assert!(matches!(
            profile_kernel(&a, 128, &swizzle, &other, SpmmConfig::default()),
            Err(SputnikError::ShapeMismatch { .. })
        ));
        // joint_heuristic always yields a legal tile.
        assert!(32u32.is_multiple_of(joint_heuristic::<f32>(512).block_items_x));
    }

    #[test]
    fn with_pattern_rejects_accumulate_fused_epilogue_and_wrong_lut() {
        let (a, b) = problem(32, 64, 32, 0.5);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        let swizzle = RowSwizzle::identity(a.rows());
        let cfg = SpmmConfig::default();
        // Accumulate seeds the fma chain from C, not +0.0: skipping would
        // no longer be bit-invisible.
        let mut out = Matrix::<f32>::zeros(32, 32);
        let acc = SpmmKernel::try_new(&a, &b, &mut out, &swizzle, cfg)
            .expect("valid kernel")
            .with_accumulate()
            .with_pattern(&lut);
        assert!(matches!(acc, Err(SputnikError::IllegalConfig { .. })));
        // The fused bias+ReLU epilogue.
        let fused = SpmmConfig {
            fused_bias_relu: true,
            ..cfg
        };
        let mut out = Matrix::<f32>::zeros(32, 32);
        let relu = SpmmKernel::try_new(&a, &b, &mut out, &swizzle, fused)
            .expect("valid kernel")
            .with_pattern(&lut);
        assert!(matches!(relu, Err(SputnikError::IllegalConfig { .. })));
        // A LUT over a transposed-shape operand.
        let wrong = PatternLut::build(&gen::activations(32, 64, 0.5, 2), PatternGranularity::Fine);
        let mut out = Matrix::<f32>::zeros(32, 32);
        let shape = SpmmKernel::try_new(&a, &b, &mut out, &swizzle, cfg)
            .expect("valid kernel")
            .with_pattern(&wrong);
        assert!(matches!(shape, Err(SputnikError::ShapeMismatch { .. })));
    }

    #[test]
    fn profile_entry_point_returns_typed_errors_before_the_cache() {
        let (a, b) = problem(32, 64, 128, 0.5);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        // 64-wide strips span two LUT tiles: an illegal config, not a panic.
        let wide = SpmmConfig {
            block_items_x: 64,
            block_items_y: 2,
            ..SpmmConfig::default()
        };
        for c in [None, Some(&cache)] {
            let got = joint_spmm_profile(&gpu, c, &a, 64, 128, &lut, wide);
            assert!(
                matches!(got, Err(SputnikError::IllegalConfig { .. })),
                "{got:?}"
            );
            let got = joint_spmm_profile(&gpu, c, &a, 63, 128, &lut, SpmmConfig::default());
            assert!(matches!(got, Err(SputnikError::ShapeMismatch { .. })));
        }
        assert!(
            cache.is_empty(),
            "a rejected problem must not reach the cache"
        );
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn skip_counters_reach_the_metrics_registry() {
        let (a, b) = problem(48, 96, 64, 0.8);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        let (probes, dead) = lut.probe_stats(&a);
        assert!(probes > 0 && dead > 0, "problem must exercise real skips");
        let before_total = gpu_sim::metrics::global().get("joint_tiles_total");
        let before_skip = gpu_sim::metrics::global().get("joint_tiles_skipped");
        let gpu = Gpu::v100();
        let _ = joint(&gpu, &a, &b, &lut, SpmmConfig::default());
        assert!(gpu_sim::metrics::global().get("joint_tiles_total") >= before_total + probes);
        assert!(gpu_sim::metrics::global().get("joint_tiles_skipped") >= before_skip + dead);
    }

    #[test]
    fn skipping_beats_the_dense_kernel_on_sparse_activations() {
        let a = gen::uniform(256, 512, 0.8, 5);
        let b = gen::activations(512, 128, 0.85, 7);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        assert!(lut.dead_fraction() > 0.5);
        let gpu = Gpu::v100();
        let cfg = joint_heuristic::<f32>(128);
        let dense = spmm_profile(&gpu, &a, 512, 128, cfg);
        let (joint, _) = profile(&gpu, None, &a, 128, &lut, cfg);
        assert!(
            joint.time_us < dense.time_us,
            "joint {} us should beat dense {} us at 85% activation sparsity",
            joint.time_us,
            dense.time_us
        );
    }

    #[test]
    fn all_dead_lut_degenerates_to_stores_of_zero() {
        // Fully-zero activations: the LUT proves every tile dead, the output
        // is exactly zero, and useful FLOPs are zero.
        let a = gen::uniform(32, 64, 0.6, 8);
        let b = Matrix::<f32>::zeros(64, 32);
        let lut = PatternLut::build(&b, PatternGranularity::Fine);
        assert_eq!(lut.tiles_live(), 0);
        let gpu = Gpu::v100();
        let (c, stats) = joint(&gpu, &a, &b, &lut, SpmmConfig::default());
        assert!(c.as_slice().iter().all(|v| v.to_bits() == 0));
        assert_eq!(stats.flops, 0);
    }
}
