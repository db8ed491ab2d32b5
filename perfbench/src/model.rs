//! `model_step`: one forward step of the Table III sparse Transformer, one
//! batch-1 step of the Table IV sparse MobileNetV1, and the fleet attention
//! problem row-sharded on 1 and 8 simulated V100s. It covers `dnn`, the
//! fusion planner and huge-grid profiling, and fully executed functional
//! launches on the fleet path.

use crate::harness::{Anchor, Checks, Digest, Metric, Pass, Tracer, Workload};
use dnn::transformer::{AttentionMode, TransformerConfig};
use dnn::{transformer_attention_problem, FleetProblem, MobileNetV1};
use gpu_sim::{Fleet, Gpu, LaunchCache};
use sparse::Matrix;
use sputnik::SddmmConfig;

pub struct Inputs {
    mode: AttentionMode,
    fleet: FleetProblem,
}

pub const WORKLOAD: Workload<Inputs> = Workload {
    name: "model_step",
    setup,
    pass,
    after,
    anchors: &[
        Anchor {
            metric: "tokens_per_s",
            source: "Table III",
            value: 67_857.0,
        },
        Anchor {
            metric: "frames_per_s",
            source: "Table IV (width 1.4)",
            value: 2_706.0,
        },
    ],
    unvalidated: &["fleet8_makespan_us"],
};

const FLEET_SEQ: usize = 4096;
const FLEET_D_HEAD: usize = 128;
const FLEET_BAND: usize = 640;
const FLEET_DEVICES: [usize; 2] = [1, 8];
const MOBILENET_WIDTH: f64 = 1.4;
const MOBILENET_SPARSITY: f64 = 0.9;

fn setup(seed: u64, t: &mut Tracer) -> Inputs {
    // The paper's sparse mask (dense band of 256, 95% sparse off-diagonal)
    // with the seed in place of the model's fixed one. The Transformer step
    // builds it from these parameters.
    let mode = AttentionMode::Sparse {
        band: 256,
        off_diag_sparsity: 0.95,
        seed,
    };
    let fleet = t.call("dnn", "generate", 0, || {
        transformer_attention_problem(FLEET_SEQ, FLEET_D_HEAD, FLEET_BAND, 0.995, seed)
    });
    Inputs { mode, fleet }
}

/// FNV-1a over the bit patterns of a functional output.
fn bits_hash(m: &Matrix<f32>) -> u64 {
    m.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pass(inp: &Inputs, t: &mut Tracer) -> Pass {
    let gpu = Gpu::v100();
    let mut digest = Digest::new();
    let mut failed = 0u64;

    let tf = t.call("dnn", "transformer_step", 0, || {
        dnn::transformer::benchmark(&gpu, &TransformerConfig::paper(), &inp.mode)
    });
    digest.add(&tf);
    failed += u64::from(tf.out_of_memory);

    let mb = t.call("dnn", "mobilenet_step", 0, || {
        dnn::mobilenet::benchmark(
            &gpu,
            &MobileNetV1::new(MOBILENET_WIDTH),
            Some(MOBILENET_SPARSITY),
            false,
        )
    });
    digest.add(&mb);

    let mut outputs = Vec::new();
    let mut fleet8 = None;
    for devices in FLEET_DEVICES {
        let mut fleet = Fleet::v100(devices);
        let cache = LaunchCache::new();
        let p = &inp.fleet;
        let run = t.call("sputnik", "spmm_row_sharded", devices as u64, || {
            sputnik::spmm_row_sharded(&mut fleet, &cache, &p.a, &p.b, p.cfg)
        });
        match run {
            Ok(run) => {
                digest.add(&run.shard_stats);
                digest.add(&run.sync);
                let label = if devices == 1 { "fleet1" } else { "fleet8" };
                outputs.push((label, bits_hash(&run.output)));
                if devices == 8 {
                    fleet8 = Some(run);
                }
            }
            Err(e) => {
                println!("row-sharded run on {devices} devices failed: {e}");
                failed += 1;
            }
        }
    }
    for (_, h) in &outputs {
        digest.add(h);
    }

    let (makespan, shard_sum, shard_max, schedule_frac) =
        fleet8.as_ref().map_or((0.0, 0.0, 0.0, 0.0), |r| {
            let max = r.shard_stats.iter().map(|s| s.time_us).fold(0.0, f64::max);
            let sched = r
                .shard_stats
                .iter()
                .filter(|s| s.bound_by == "schedule")
                .count();
            (
                r.sync.makespan_us,
                r.serial_kernel_us(),
                max,
                sched as f64 / r.shard_stats.len().max(1) as f64,
            )
        });
    Pass {
        ops: 2 + FLEET_DEVICES.len() as u64,
        failed_ops: failed,
        digest,
        sim: vec![
            ("dnn.tokens_per_s", tf.tokens_per_second, "1/s"),
            ("dnn.frames_per_s", mb.frames_per_second, "1/s"),
            ("gpu-sim.fleet8_makespan_us", makespan, "us"),
        ],
        layer: vec![
            ("sparse.nnz", inp.fleet.a.nnz() as f64),
            ("sputnik.shard_kernel_us", shard_sum),
            ("sputnik.shard_max_us", shard_max),
            ("gpu-sim.schedule_bound_frac", schedule_frac),
            ("dnn.attention_us", tf.attention_us),
            ("dnn.pointwise_us", mb.pointwise_us),
            ("dnn.depthwise_us", mb.depthwise_us),
        ],
        counters: Default::default(),
        outputs,
    }
}

/// The sharded outputs must equal the single-device kernel bit for bit, and
/// that kernel must match the CPU reference within tolerance. The speedups
/// compare Sputnik against cuSPARSE on the fleet problem, once, untimed.
fn after(inp: &Inputs, pass: &Pass, checks: &mut Checks) -> Vec<Metric> {
    let gpu = Gpu::v100();
    let p = &inp.fleet;
    let (single, stats) = sputnik::spmm(&gpu, &p.a, &p.b, p.cfg);
    let want = bits_hash(&single);
    for &(label, got) in &pass.outputs {
        checks.check(got == want, || {
            format!("{label} output differs from the single-device kernel")
        });
    }
    let reference = sputnik::reference::spmm(&p.a, &p.b);
    let scale = reference
        .as_slice()
        .iter()
        .fold(1.0f32, |m, x| m.max(x.abs()));
    let err = single.max_abs_diff(&reference);
    println!("single-device SpMM vs CPU reference: max |diff| {err:e}, largest |output| {scale}");
    checks.check(err <= 1e-5 * scale, || {
        format!("single-device SpMM vs CPU reference: max |diff| {err} > 1e-5 x {scale}")
    });

    let n = p.b.cols();
    let spmm = baselines::cusparse_spmm_profile::<f32>(&gpu, &p.a, n).time_us / stats.time_us;
    let ours = sputnik::sddmm_profile::<f32>(&gpu, &p.a, n, SddmmConfig::heuristic::<f32>(n));
    let sddmm = baselines::cusparse_sddmm_profile::<f32>(&gpu, &p.a, n).time_us / ours.time_us;
    vec![
        ("sputnik.spmm_speedup", spmm, "x"),
        ("sputnik.sddmm_speedup", sddmm, "x"),
    ]
}
