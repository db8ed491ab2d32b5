//! ResNet-50 (He et al.) — the other half of the paper's matrix corpus.
//!
//! The Figure 9 dataset draws its convolution shapes from pruned ResNet-50
//! checkpoints; this module assembles the whole network so the per-layer
//! kernels can be benchmarked end to end, mirroring the MobileNetV1
//! experiment. Convolutions are benchmarked "as an im2col transform on the
//! input data followed by SpMM" (Section VII-A1) with the im2col itself
//! untimed, exactly as the paper does; batch-1 inference pads N to a
//! multiple of four for vector memory instructions.

use gpu_sim::Gpu;
use sparse::gen;
use sputnik::SpmmConfig;

/// One convolution of the network, lowered to a matmul shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Output channels (M).
    pub out_channels: usize,
    /// Input features after lowering (K = in_channels * kh * kw).
    pub k: usize,
    /// Output spatial positions per image (N per batch element).
    pub spatial: usize,
    /// Whether the paper's pruning sweep touches this layer (the stem and
    /// shortcut projections stay dense).
    pub prunable: bool,
}

impl ConvShape {
    pub fn macs(&self) -> u64 {
        (self.out_channels * self.k * self.spatial) as u64
    }
}

/// The ResNet-50 layer inventory as matmul shapes.
///
/// Bottleneck block: 1x1 reduce -> 3x3 -> 1x1 expand (+1x1 projection on the
/// first block of each stage). Stages of [3, 4, 6, 3] blocks at spatial
/// sizes 56/28/14/7.
pub fn resnet50_convs() -> Vec<ConvShape> {
    let mut convs = Vec::new();
    // Stem: 7x7, 3->64, stride 2 on 224x224 (output 112x112). Stays dense.
    convs.push(ConvShape {
        out_channels: 64,
        k: 3 * 49,
        spatial: 112 * 112,
        prunable: false,
    });

    let stages: [(usize, usize, usize); 4] = [(64, 3, 56), (128, 4, 28), (256, 6, 14), (512, 3, 7)];
    let mut in_ch = 64;
    for (width, blocks, spatial) in stages {
        let out_ch = width * 4;
        for b in 0..blocks {
            let sp = spatial * spatial;
            // 1x1 reduce.
            convs.push(ConvShape {
                out_channels: width,
                k: in_ch,
                spatial: sp,
                prunable: true,
            });
            // 3x3 (im2col: K = 9 * width).
            convs.push(ConvShape {
                out_channels: width,
                k: 9 * width,
                spatial: sp,
                prunable: true,
            });
            // 1x1 expand.
            convs.push(ConvShape {
                out_channels: out_ch,
                k: width,
                spatial: sp,
                prunable: true,
            });
            if b == 0 {
                // Projection shortcut (dense, like the stem).
                convs.push(ConvShape {
                    out_channels: out_ch,
                    k: in_ch,
                    spatial: sp,
                    prunable: false,
                });
            }
            in_ch = out_ch;
        }
    }
    convs
}

/// Benchmark result for one inference pass.
#[derive(Debug, Clone, Default)]
pub struct ResNetBench {
    pub sparse: bool,
    pub sparsity: f64,
    pub inference_us: f64,
    pub frames_per_second: f64,
    pub dense_layer_us: f64,
    pub sparse_layer_us: f64,
    pub classifier_us: f64,
    pub weight_bytes: u64,
    pub total_macs: u64,
}

fn pad4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

/// Batch-1 inference (cost model). `sparsity` of `None` is the dense
/// baseline; `Some(s)` prunes every prunable convolution to `s`.
pub fn benchmark(gpu: &Gpu, sparsity: Option<f64>) -> ResNetBench {
    let convs = resnet50_convs();
    let mut bench = ResNetBench {
        sparse: sparsity.is_some(),
        sparsity: sparsity.unwrap_or(0.0),
        ..Default::default()
    };

    for (li, conv) in convs.iter().enumerate() {
        bench.total_macs += conv.macs();
        let n = pad4(conv.spatial);
        match sparsity {
            Some(s) if conv.prunable => {
                let w = gen::uniform(conv.out_channels, conv.k, s, 0x5e7 + li as u64);
                let mut cfg = SpmmConfig::heuristic::<f32>(n);
                cfg.fused_bias_relu = true;
                bench.sparse_layer_us +=
                    sputnik::spmm_profile::<f32>(gpu, &w, conv.k, n, cfg).time_us;
                bench.weight_bytes += w.bytes(sparse::IndexWidth::U32);
            }
            _ => {
                bench.dense_layer_us += baselines::gemm_profile(gpu, conv.out_channels, conv.k, n)
                    .time_us
                    + crate::layers::bias_relu_profile(gpu, conv.out_channels, conv.spatial)
                        .time_us;
                bench.weight_bytes += (conv.out_channels * conv.k * 4) as u64;
            }
        }
    }

    // Global average pool + fc1000 (dense).
    bench.classifier_us = baselines::gemm_profile(gpu, 1000, 2048, 4).time_us;
    bench.weight_bytes += 1000 * 2048 * 4;

    bench.inference_us = bench.dense_layer_us + bench.sparse_layer_us + bench.classifier_us;
    bench.frames_per_second = 1e6 / bench.inference_us;
    bench
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_inventory_matches_resnet50() {
        let convs = resnet50_convs();
        // 1 stem + 16 blocks x 3 convs + 4 projections = 53 convolutions.
        assert_eq!(convs.len(), 53);
        // ~4.1 GMACs per image at 224x224.
        let gmacs: f64 = convs.iter().map(|c| c.macs() as f64).sum::<f64>() / 1e9;
        assert!((3.2..4.6).contains(&gmacs), "got {gmacs} GMACs");
        // Prunable layers carry the majority of the compute.
        let prunable: f64 = convs
            .iter()
            .filter(|c| c.prunable)
            .map(|c| c.macs() as f64)
            .sum();
        assert!(prunable / (gmacs * 1e9) > 0.75);
    }

    #[test]
    fn sparse_inference_is_faster_and_smaller() {
        let gpu = Gpu::v100();
        let dense = benchmark(&gpu, None);
        let sparse = benchmark(&gpu, Some(0.9));
        assert!(
            sparse.inference_us < dense.inference_us,
            "{} vs {}",
            sparse.inference_us,
            dense.inference_us
        );
        assert!(sparse.weight_bytes < dense.weight_bytes);
        assert_eq!(dense.total_macs, sparse.total_macs, "same architecture");
    }

    #[test]
    fn moderate_sparsity_helps_less() {
        let gpu = Gpu::v100();
        let s70 = benchmark(&gpu, Some(0.7));
        let s95 = benchmark(&gpu, Some(0.95));
        assert!(s95.sparse_layer_us < s70.sparse_layer_us);
    }

    #[test]
    fn dense_layers_unaffected_by_pruning() {
        let gpu = Gpu::v100();
        let a = benchmark(&gpu, Some(0.8));
        let b = benchmark(&gpu, Some(0.95));
        assert!((a.dense_layer_us - b.dense_layer_us).abs() < 1e-9);
    }
}
