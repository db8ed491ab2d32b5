//! `dlmc`: the paper's Fig. 9 / Table I sweep over the deep-learning matrix
//! corpus. Sputnik SpMM and SDDMM (heuristic configs, FP32) are profiled
//! through a fresh `LaunchCache` each pass, against the cuSPARSE models.
//! Every launch is cost-only and every cache access misses, so the pass is
//! all profile engine.

use crate::harness::{Anchor, Checks, Digest, Metric, Pass, Tracer, Workload};
use gpu_sim::{Gpu, LaunchCache};
use sparse::dataset::{self, ProblemSpec};
use sparse::{CsrMatrix, RowSwizzle};
use sputnik::{SddmmConfig, SddmmKernel, SpmmConfig, SpmmKernel};

pub struct Inputs {
    problems: Vec<(ProblemSpec, CsrMatrix<f32>)>,
    seed: u64,
}

pub const WORKLOAD: Workload<Inputs> = Workload {
    name: "dlmc",
    setup,
    pass,
    after,
    anchors: &[
        Anchor {
            metric: "spmm_speedup",
            source: "Table I",
            value: 3.58,
        },
        Anchor {
            metric: "sddmm_speedup",
            source: "Table I",
            value: 2.19,
        },
    ],
    unvalidated: &[],
};

/// Problems checked against `Gpu::profile_reference` after the timed phase.
const REFERENCE_CHECKS: usize = 4;

/// One problem per (layer, sparsity) cell of the corpus, the first one the
/// seeded shuffle yields. Shapes and sparsities are the same for every
/// seed, so the cost of a pass barely moves with the seed; the seed picks
/// each cell's pruning method and replica, and with them the topology.
fn draw(seed: u64) -> Vec<ProblemSpec> {
    let shuffled = dataset::dl_corpus_sample(usize::MAX, seed);
    let mut seen = std::collections::BTreeSet::new();
    shuffled
        .into_iter()
        .filter(|s| seen.insert((s.layer, (s.sparsity * 100.0).round() as u32)))
        .collect()
}

fn setup(seed: u64, t: &mut Tracer) -> Inputs {
    let problems = draw(seed)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let a = t.call("sparse", "generate", i as u64, || spec.generate());
            (spec, a)
        })
        .collect();
    Inputs { problems, seed }
}

fn geo_mean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn pass(inp: &Inputs, t: &mut Tracer) -> Pass {
    let gpu = Gpu::v100();
    let cache = LaunchCache::new();
    let mut digest = Digest::new();
    let (mut spmm_ratios, mut sddmm_ratios) = (Vec::new(), Vec::new());
    let (mut spmm_us, mut sddmm_us, mut cusparse_us) = (0.0, 0.0, 0.0);
    let (mut schedule_bound, mut failed) = (0usize, 0u64);
    let mut nnz = 0usize;
    for (i, (spec, a)) in inp.problems.iter().enumerate() {
        nnz += a.nnz();
        let (inference, training) = spec.batch_sizes();
        for (b, batch) in [inference, training].into_iter().enumerate() {
            let n = spec.n(batch);
            let id = (2 * i + b) as u64;
            let (ours, _) = t.call("sputnik", "spmm", id, || {
                sputnik::spmm_profile_cached::<f32>(
                    &gpu,
                    &cache,
                    a,
                    spec.cols,
                    n,
                    SpmmConfig::heuristic::<f32>(n),
                )
            });
            let cusp = t.call("baselines", "cusparse_spmm", id, || {
                baselines::cusparse_spmm_profile::<f32>(&gpu, a, n)
            });
            let (sddmm, _) = t.call("sputnik", "sddmm", id, || {
                sputnik::sddmm_profile_cached::<f32>(
                    &gpu,
                    &cache,
                    a,
                    n,
                    SddmmConfig::heuristic::<f32>(n),
                )
            });
            let sddmm_cusp = t.call("baselines", "cusparse_sddmm", id, || {
                baselines::cusparse_sddmm_profile::<f32>(&gpu, a, n)
            });
            spmm_ratios.push(cusp.time_us / ours.time_us);
            sddmm_ratios.push(sddmm_cusp.time_us / sddmm.time_us);
            spmm_us += ours.time_us;
            sddmm_us += sddmm.time_us;
            cusparse_us += cusp.time_us + sddmm_cusp.time_us;
            for s in [&ours, &cusp, &sddmm, &sddmm_cusp] {
                // A profile fails if it gives no positive, finite time.
                if !(s.time_us.is_finite() && s.time_us > 0.0) {
                    println!(
                        "{} on {}@r{} n={n}: time {} us",
                        s.kernel, spec.layer, spec.replica, s.time_us
                    );
                    failed += 1;
                }
                schedule_bound += usize::from(s.bound_by == "schedule");
                digest.add(s);
            }
        }
    }
    let total_launches = 4 * 2 * inp.problems.len();
    Pass {
        ops: total_launches as u64,
        failed_ops: failed,
        digest,
        sim: vec![
            ("sputnik.spmm_speedup", geo_mean(&spmm_ratios), "x"),
            ("sputnik.sddmm_speedup", geo_mean(&sddmm_ratios), "x"),
        ],
        layer: vec![
            ("sparse.nnz", nnz as f64),
            ("baselines.cusparse_sim_us", cusparse_us),
            ("sputnik.spmm_sim_us", spmm_us),
            ("sputnik.sddmm_sim_us", sddmm_us),
            (
                "gpu-sim.schedule_bound_frac",
                schedule_bound as f64 / total_launches as f64,
            ),
        ],
        counters: Default::default(),
        outputs: Vec::new(),
    }
}

/// The fast launch engine (streaming + block dedup) must match the
/// brute-force reference engine bit for bit on a seeded subset.
fn after(inp: &Inputs, _pass: &Pass, checks: &mut Checks) -> Vec<Metric> {
    let gpu = Gpu::v100();
    let mut rng = serve::Rng64::new(inp.seed ^ 0xd1c);
    for _ in 0..REFERENCE_CHECKS {
        let i = (rng.next_u64() % inp.problems.len() as u64) as usize;
        let (spec, a) = &inp.problems[i];
        let n = spec.n(spec.batch_sizes().0);
        let (spmm_cfg, sddmm_cfg) = (
            SpmmConfig::heuristic::<f32>(n),
            SddmmConfig::heuristic::<f32>(n),
        );
        let swizzle_for = |on: bool| {
            if on {
                RowSwizzle::by_length_desc(a)
            } else {
                RowSwizzle::identity(a.rows())
            }
        };
        let (spmm_swizzle, sddmm_swizzle) = (
            swizzle_for(spmm_cfg.row_swizzle),
            swizzle_for(sddmm_cfg.row_swizzle),
        );
        let spmm = SpmmKernel::<f32>::for_profile(a, n, &spmm_swizzle, spmm_cfg);
        let sddmm = SddmmKernel::<f32>::for_profile(a, n, &sddmm_swizzle, sddmm_cfg);
        let fast = (gpu.profile(&spmm), gpu.profile(&sddmm));
        let reference = (gpu.profile_reference(&spmm), gpu.profile_reference(&sddmm));
        checks.check(Ok(&fast.0) == reference.0.as_ref(), || {
            format!(
                "SpMM fast path != profile_reference on {}@r{} n={n}",
                spec.layer, spec.replica
            )
        });
        checks.check(Ok(&fast.1) == reference.1.as_ref(), || {
            format!(
                "SDDMM fast path != profile_reference on {}@r{} n={n}",
                spec.layer, spec.replica
            )
        });
    }
    Vec::new()
}
