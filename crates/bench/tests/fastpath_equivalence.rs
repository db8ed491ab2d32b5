//! Launch fast-path equivalence gates.
//!
//! The launch engine has three result-affecting-if-wrong optimizations: the
//! streaming trace reduction, structural block dedup in profile mode, and
//! the cross-launch cache. Each must be *bit-identical* to the pre-fast-path
//! engine. This suite pins that across the same kernel/shape grid
//! `sanitize_all` exercises:
//!
//! * `Gpu::profile_reference` — the old collect-every-`BlockCost` path, kept
//!   as ground truth;
//! * `Gpu::with_block_dedup(false)` profile requests — the streaming
//!   reduction alone;
//! * plain profile requests — streaming + dedup (kernels with signatures).
//!
//! All three must produce equal [`LaunchStats`] (`PartialEq` covers every
//! field, floats included — equality, not tolerance). A second gate checks
//! that profile launches never touch functional outputs.

use baselines::aspt::AsptSpmmKernel;
use baselines::cusparse::{
    ConstrainedGemmKernel, CusparseSpmmHalfFallbackKernel, CusparseSpmmKernel,
};
use baselines::{
    AsptDirection, AsptPlan, BlockSpmmKernel, EllSpmmKernel, GemmKernel, MergeSpmmKernel,
    NnzSplitSpmmKernel, TransposeKernel,
};
use gpu_sim::{Gpu, Kernel, Launch};
use sparse::ell::EllMatrix;
use sparse::{block, gen, Matrix, RowSwizzle};
use sputnik::{
    FallbackSpmmKernel, PermuteKernel, SddmmConfig, SddmmKernel, SparseSoftmaxKernel, SpmmConfig,
};
use std::sync::atomic::{AtomicU32, Ordering};

mod common;

/// The sanitize_all shape grid: square pow2, ragged partial tiles, high
/// sparsity with empty rows.
const SHAPES: &[(usize, usize, usize, f64)] =
    &[(64, 96, 32, 0.7), (128, 128, 128, 0.9), (100, 76, 40, 0.8)];

/// Assert the streamed and dedup'd profile paths match the reference
/// collect path bit-for-bit.
fn assert_fastpath_identical(kernel: &dyn Kernel, label: &str) {
    let reference = Gpu::v100()
        .profile_reference(kernel)
        .unwrap_or_else(|e| panic!("{label}: reference launch failed: {e}"));
    let streamed = Gpu::v100()
        .with_block_dedup(false)
        .run(&Launch::PROFILE, kernel)
        .map(|l| l.stats)
        .unwrap_or_else(|e| panic!("{label}: streamed launch failed: {e}"));
    let dedup = Gpu::v100()
        .run(&Launch::PROFILE, kernel)
        .map(|l| l.stats)
        .unwrap_or_else(|e| panic!("{label}: dedup launch failed: {e}"));
    assert_eq!(streamed, reference, "{label}: streaming reduction diverged");
    assert_eq!(dedup, reference, "{label}: block dedup diverged");
}

#[test]
fn all_kernels_fastpath_bit_identical() {
    for (i, &(m, k, n, sparsity)) in SHAPES.iter().enumerate() {
        let seed = 0x5A17 + i as u64 * 101;
        let label = |name: &str| format!("{name} {m}x{k}x{n} s={sparsity}");
        let a = gen::uniform(m, k, sparsity, seed);
        let b = Matrix::<f32>::random(k, n, seed + 1);

        // Sputnik SpMM: default, heuristic, and swizzled configs.
        for cfg in [
            SpmmConfig::default(),
            SpmmConfig::heuristic::<f32>(n),
            SpmmConfig {
                row_swizzle: true,
                ..SpmmConfig::heuristic::<f32>(n)
            },
        ] {
            let swizzle = RowSwizzle::new(&a, cfg.row_swizzle);
            let kernel = sputnik::SpmmKernel::<f32>::for_profile(&a, n, &swizzle, cfg);
            assert_fastpath_identical(&kernel, &label("spmm"));
        }

        // Scalar fallback SpMM.
        {
            let mut out = Matrix::<f32>::zeros(m, n);
            let kernel = FallbackSpmmKernel::new(&a, &b, &mut out);
            assert_fastpath_identical(&kernel, &label("fallback_spmm"));
        }

        // SDDMM (swizzled heuristic).
        {
            let mask = gen::uniform(m, n, sparsity, seed + 2);
            let swizzle = RowSwizzle::by_length_desc(&mask);
            let kernel = SddmmKernel::<f32>::for_profile(
                &mask,
                k,
                &swizzle,
                SddmmConfig::heuristic::<f32>(k),
            );
            assert_fastpath_identical(&kernel, &label("sddmm"));
        }

        // Sparse softmax.
        {
            let mut values = vec![0.0f32; a.nnz()];
            let kernel = SparseSoftmaxKernel::new(&a, &mut values);
            assert_fastpath_identical(&kernel, &label("softmax"));
        }

        // Value permute.
        {
            let src = a.values().to_vec();
            let perm: Vec<u32> = (0..a.nnz() as u32).rev().collect();
            let mut dst = vec![0.0f32; a.nnz()];
            let kernel = PermuteKernel::new(&src, &perm, &mut dst);
            assert_fastpath_identical(&kernel, &label("permute"));
        }

        // Dense GEMM + transpose.
        {
            let da = Matrix::<f32>::random(m, k, seed + 5);
            let mut out = Matrix::<f32>::zeros(m, n);
            let kernel = GemmKernel::new(&da, &b, &mut out);
            assert_fastpath_identical(&kernel, &label("gemm"));

            let mut t = Matrix::<f32>::zeros(k, m);
            let kernel = TransposeKernel::new(&da, &mut t);
            assert_fastpath_identical(&kernel, &label("transpose"));
        }

        // ELLR-T SpMM.
        {
            let ell = EllMatrix::from_csr(&a);
            let kernel = EllSpmmKernel::for_profile(&ell, n);
            assert_fastpath_identical(&kernel, &label("ell_spmm"));
        }

        // Merge SpMM (N % 32 == 0 only).
        if n % 32 == 0 {
            let kernel = MergeSpmmKernel::<f32>::for_profile(&a, n)
                .unwrap_or_else(|e| panic!("merge construction: {e}"));
            assert_fastpath_identical(&kernel, &label("merge_spmm"));
        }

        // Nonzero-split SpMM.
        {
            let kernel = NnzSplitSpmmKernel::<f32>::for_profile(&a, n);
            assert_fastpath_identical(&kernel, &label("nnz_split"));
        }

        // cuSPARSE SpMM + the half fallback.
        {
            let kernel = CusparseSpmmKernel::<f32>::for_profile(&a, n);
            assert_fastpath_identical(&kernel, &label("cusparse_spmm"));

            let kernel = CusparseSpmmHalfFallbackKernel::new(&a, n);
            assert_fastpath_identical(&kernel, &label("cusparse_half_fallback"));
        }

        // Constrained GEMM SDDMM.
        {
            let mask = gen::uniform(m, n, sparsity, seed + 6);
            let kernel = ConstrainedGemmKernel::for_profile(&mask, k);
            assert_fastpath_identical(&kernel, &label("constrained_gemm"));
        }
    }

    // Constrained GEMM on a multi-tile mask: ragged edge tiles, an empty
    // tile, a dense tile and rows that cross tile columns. Both constructors
    // build the per-tile nonzero histogram the signature and cost read.
    {
        let mask = common::multi_tile_mask();
        let k = 40;
        let kernel = ConstrainedGemmKernel::for_profile(&mask, k);
        assert_fastpath_identical(&kernel, "constrained_gemm multi-tile");
        let stats = Gpu::v100().profile(&kernel);
        assert_eq!(stats.blocks, 20, "5x4 tile grid");
        assert_eq!(stats.flops, 2 * mask.nnz() as u64 * k as u64);

        let lhs = Matrix::<f32>::random(mask.rows(), k, 0xC6E1);
        let rhs_t = Matrix::<f32>::random(k, mask.cols(), 0xC6E2);
        let mut values = vec![0.0f32; mask.nnz()];
        let kernel = ConstrainedGemmKernel::new(&lhs, &rhs_t, &mask, &mut values);
        assert_fastpath_identical(&kernel, "constrained_gemm multi-tile (functional ctor)");
    }

    // Shape-constrained baselines.
    {
        let a = gen::uniform(256, 128, 0.8, 0xA597);
        let plan = AsptPlan::build(&a, AsptDirection::Spmm);
        let kernel = AsptSpmmKernel::<f32>::for_profile(&a, &plan, 32)
            .unwrap_or_else(|e| panic!("aspt construction: {e}"));
        assert_fastpath_identical(&kernel, "aspt 256x128x32");
    }
    {
        let dense = Matrix::<f32>::random(64, 64, 0xB10C);
        let bsr = block::block_prune(&dense, 8, 0.5);
        let kernel = BlockSpmmKernel::for_profile(&bsr, 32);
        assert_fastpath_identical(&kernel, "block_spmm 64x64x32");
    }
}

#[test]
fn functional_launch_unaffected_by_dedup_setting() {
    // Functional dedup records cost for one representative per block
    // signature and replays the rest functional-only; a functional launch
    // must produce identical outputs and stats regardless of the flag.
    let (m, k, n) = (96, 64, 48);
    let a = gen::uniform(m, k, 0.75, 77);
    let b = Matrix::<f32>::random(k, n, 78);
    let run = |dedup: bool| {
        let gpu = Gpu::v100().with_block_dedup(dedup);
        let mut out = Matrix::<f32>::zeros(m, n);
        let stats = {
            let swizzle = RowSwizzle::identity(m);
            let kernel =
                sputnik::SpmmKernel::try_new(&a, &b, &mut out, &swizzle, SpmmConfig::default())
                    .unwrap_or_else(|e| panic!("{e}"));
            gpu.run(&Launch::FUNCTIONAL, &kernel)
                .map_or_else(|e| panic!("{e}"), |l| l.stats)
        };
        (out, stats)
    };
    let (out_on, stats_on) = run(true);
    let (out_off, stats_off) = run(false);
    assert_eq!(out_on.as_slice(), out_off.as_slice());
    assert_eq!(stats_on, stats_off);
}

#[test]
fn functional_dedup_bit_identical_across_kernels() {
    // The functional-mode dedup fast path, end to end over every
    // functional-capable kernel: outputs AND stats must be bit-identical to
    // the dedup-disabled engine (equal signatures ⇒ bit-identical BlockCost
    // and block outputs independent of the record flag).
    let gpu_on = Gpu::v100();
    let gpu_off = Gpu::v100().with_block_dedup(false);
    let bits =
        |mat: &Matrix<f32>| -> Vec<u32> { mat.as_slice().iter().map(|v| v.to_bits()).collect() };

    for (i, &(m, k, n, sparsity)) in SHAPES.iter().enumerate() {
        let seed = 0xD3D0 + i as u64 * 41;
        let label = |name: &str| format!("{name} {m}x{k}x{n} s={sparsity}");
        let a = gen::uniform(m, k, sparsity, seed);
        let b = Matrix::<f32>::random(k, n, seed + 1);
        let b_col = b.to_layout(sparse::Layout::ColMajor);
        let lhs = Matrix::<f32>::random(m, k, seed + 2);
        let rhs = Matrix::<f32>::random(n, k, seed + 3);

        let check = |label: String,
                     out_on: Vec<u32>,
                     stats_on: gpu_sim::LaunchStats,
                     out_off: Vec<u32>,
                     stats_off: gpu_sim::LaunchStats| {
            assert_eq!(out_on, out_off, "{label}: functional dedup changed outputs");
            assert_eq!(
                stats_on, stats_off,
                "{label}: functional dedup changed stats"
            );
        };

        {
            let cfg = SpmmConfig::heuristic::<f32>(n);
            let (c_on, s_on) = sputnik::spmm(&gpu_on, &a, &b, cfg);
            let (c_off, s_off) = sputnik::spmm(&gpu_off, &a, &b, cfg);
            check(label("spmm"), bits(&c_on), s_on, bits(&c_off), s_off);
        }
        {
            let mask = gen::uniform(m, n, sparsity, seed + 4);
            let cfg = SddmmConfig::heuristic::<f32>(k);
            let (d_on, s_on) = sputnik::sddmm(&gpu_on, &lhs, &rhs, &mask, cfg);
            let (d_off, s_off) = sputnik::sddmm(&gpu_off, &lhs, &rhs, &mask, cfg);
            let vb = |m: &sparse::CsrMatrix<f32>| -> Vec<u32> {
                m.values().iter().map(|v| v.to_bits()).collect()
            };
            check(label("sddmm"), vb(&d_on), s_on, vb(&d_off), s_off);
        }
        {
            let (c_on, s_on) = baselines::cusparse_spmm(&gpu_on, &a, &b_col);
            let (c_off, s_off) = baselines::cusparse_spmm(&gpu_off, &a, &b_col);
            check(label("cusparse"), bits(&c_on), s_on, bits(&c_off), s_off);
        }
        if n % 32 == 0 {
            let (c_on, s_on) =
                baselines::merge_spmm(&gpu_on, &a, &b).unwrap_or_else(|e| panic!("{e}"));
            let (c_off, s_off) =
                baselines::merge_spmm(&gpu_off, &a, &b).unwrap_or_else(|e| panic!("{e}"));
            check(label("merge_spmm"), bits(&c_on), s_on, bits(&c_off), s_off);
        }
        {
            let (c_on, s_on) = baselines::nnz_split_spmm(&gpu_on, &a, &b);
            let (c_off, s_off) = baselines::nnz_split_spmm(&gpu_off, &a, &b);
            check(label("nnz_split"), bits(&c_on), s_on, bits(&c_off), s_off);
        }
        {
            let ell = EllMatrix::from_csr(&a);
            let (c_on, s_on) = baselines::ell_spmm(&gpu_on, &ell, &b);
            let (c_off, s_off) = baselines::ell_spmm(&gpu_off, &ell, &b);
            check(label("ell_spmm"), bits(&c_on), s_on, bits(&c_off), s_off);
        }
        {
            let (c_on, s_on) = baselines::gemm(&gpu_on, &lhs, &b);
            let (c_off, s_off) = baselines::gemm(&gpu_off, &lhs, &b);
            check(label("gemm"), bits(&c_on), s_on, bits(&c_off), s_off);

            let (t_on, s_on) = baselines::transpose(&gpu_on, &b);
            let (t_off, s_off) = baselines::transpose(&gpu_off, &b);
            check(label("transpose"), bits(&t_on), s_on, bits(&t_off), s_off);
        }
    }

    // Block-sparse (dense 32-divisible shape).
    {
        let dense = Matrix::<f32>::random(64, 64, 0xB25C);
        let bsr = block::block_prune(&dense, 8, 0.5);
        let b = Matrix::<f32>::random(64, 48, 0xB25D);
        let (c_on, s_on) = baselines::block_spmm(&gpu_on, &bsr, &b);
        let (c_off, s_off) = baselines::block_spmm(&gpu_off, &bsr, &b);
        assert_eq!(c_on.as_slice(), c_off.as_slice(), "block_spmm outputs");
        assert_eq!(s_on, s_off, "block_spmm stats");
    }

    // cuSPARSE SDDMM (transpose + constrained GEMM) on the multi-tile mask.
    {
        let mask = common::multi_tile_mask();
        let lhs = Matrix::<f32>::random(mask.rows(), 40, 0xC6E3);
        let rhs = Matrix::<f32>::random(mask.cols(), 40, 0xC6E4);
        let (d_on, s_on) = baselines::cusparse_sddmm(&gpu_on, &lhs, &rhs, &mask);
        let (d_off, s_off) = baselines::cusparse_sddmm(&gpu_off, &lhs, &rhs, &mask);
        assert_eq!(d_on.values(), d_off.values(), "cusparse_sddmm outputs");
        assert_eq!(s_on, s_off, "cusparse_sddmm stats");
    }
}

#[test]
fn profile_launches_never_touch_outputs() {
    // Profile-only launches must not write functional outputs, even when
    // the kernel holds real output buffers.
    let (m, k, n) = (64, 96, 32);
    let a = gen::uniform(m, k, 0.7, 91);
    let b = Matrix::<f32>::random(k, n, 92);

    // Sputnik SpMM with a sentinel-filled output.
    {
        let mut out = Matrix::<f32>::from_fn(m, n, |_, _| 7.125);
        let swizzle = RowSwizzle::identity(m);
        {
            let kernel =
                sputnik::SpmmKernel::try_new(&a, &b, &mut out, &swizzle, SpmmConfig::default())
                    .unwrap_or_else(|e| panic!("{e}"));
            let _ = Gpu::v100()
                .run(&Launch::PROFILE, &kernel)
                .map(|l| l.stats)
                .unwrap_or_else(|e| panic!("{e}"));
        }
        assert!(
            out.as_slice().iter().all(|&v| v == 7.125),
            "profile launch wrote to the SpMM output"
        );
    }

    // Scalar fallback SpMM.
    {
        let mut out = Matrix::<f32>::from_fn(m, n, |_, _| 7.125);
        {
            let kernel = FallbackSpmmKernel::new(&a, &b, &mut out);
            let _ = Gpu::v100()
                .run(&Launch::PROFILE, &kernel)
                .map(|l| l.stats)
                .unwrap_or_else(|e| panic!("{e}"));
        }
        assert!(
            out.as_slice().iter().all(|&v| v == 7.125),
            "profile launch wrote to the fallback output"
        );
    }

    // Atomic-output kernel (nonzero-split): profile must leave the atomics
    // untouched too.
    {
        let out: Vec<AtomicU32> = (0..m * n)
            .map(|_| AtomicU32::new(7.125f32.to_bits()))
            .collect();
        let kernel = NnzSplitSpmmKernel::new(&a, &b, &out);
        let _ = Gpu::v100()
            .run(&Launch::PROFILE, &kernel)
            .map(|l| l.stats)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(
            out.iter()
                .all(|v| v.load(Ordering::Relaxed) == 7.125f32.to_bits()),
            "profile launch wrote to the atomic output"
        );
    }
}

#[test]
fn cached_profile_equals_uncached_across_kernels() {
    // The launch cache must replay exactly what an uncached profile returns,
    // for both SpMM and SDDMM entry points, across the shape grid.
    let cache = gpu_sim::LaunchCache::new();
    let gpu = Gpu::v100();
    for (i, &(m, k, n, sparsity)) in SHAPES.iter().enumerate() {
        let seed = 0xCAC4E + i as u64 * 31;
        let a = gen::uniform(m, k, sparsity, seed);
        let spmm_cfg = SpmmConfig::heuristic::<f32>(n);
        let sddmm_cfg = SddmmConfig::heuristic::<f32>(k);

        let plain_spmm = sputnik::spmm_profile::<f32>(&gpu, &a, k, n, spmm_cfg);
        let (cold, hit_cold) =
            sputnik::spmm_profile_cached::<f32>(&gpu, &cache, &a, k, n, spmm_cfg);
        let (warm, hit_warm) =
            sputnik::spmm_profile_cached::<f32>(&gpu, &cache, &a, k, n, spmm_cfg);
        assert!(!hit_cold && hit_warm);
        assert_eq!(plain_spmm, cold);
        assert_eq!(plain_spmm, warm);

        let plain_sddmm = sputnik::sddmm_profile::<f32>(&gpu, &a, k, sddmm_cfg);
        let (cold, hit_cold) = sputnik::sddmm_profile_cached::<f32>(&gpu, &cache, &a, k, sddmm_cfg);
        let (warm, hit_warm) = sputnik::sddmm_profile_cached::<f32>(&gpu, &cache, &a, k, sddmm_cfg);
        assert!(!hit_cold && hit_warm);
        assert_eq!(plain_sddmm, cold);
        assert_eq!(plain_sddmm, warm);
    }
}
