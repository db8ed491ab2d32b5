//! Integration tests for the kernel sanitizer: seed each class of violation
//! in a deliberately broken kernel and assert the sanitizer reports exactly
//! that violation — and that well-behaved kernels come back clean.

use gpu_sim::{
    AccessPattern, BlockContext, BufferId, BufferSpec, Dim3, Gpu, Kernel, Launch, LaunchCache,
    LaunchStats, LaunchSummary, SanitizerReport, SanitizerViolation, SanitizerWarning, SmemScope,
    SyncUnsafeSlice,
};

const BUF: BufferId = BufferId(0);

/// A sanitized launch through the funnel: `(stats, report)`.
fn sanitize(gpu: &Gpu, kernel: &dyn Kernel) -> (LaunchStats, SanitizerReport) {
    let (stats, report, _) = run_sanitized(gpu, &Launch::SANITIZE, kernel);
    (stats, report)
}

/// A cached sanitized launch: `(stats, report, hit)`.
fn sanitize_cached(
    gpu: &Gpu,
    cache: &LaunchCache,
    fingerprint: u64,
    kernel: &dyn Kernel,
) -> (LaunchStats, SanitizerReport, bool) {
    run_sanitized(gpu, &Launch::SANITIZE.cached(cache, fingerprint), kernel)
}

fn run_sanitized(
    gpu: &Gpu,
    req: &Launch<'_>,
    kernel: &dyn Kernel,
) -> (LaunchStats, SanitizerReport, bool) {
    let launched = gpu.run(req, kernel).unwrap_or_else(|e| panic!("{e}"));
    let Some(report) = launched.report else {
        panic!("a sanitized launch must carry a report");
    };
    (launched.stats, report, launched.hit)
}

fn buffer(footprint_bytes: u64) -> Vec<BufferSpec> {
    vec![BufferSpec {
        id: BUF,
        name: "out",
        footprint_bytes,
        pattern: AccessPattern::Streaming,
    }]
}

/// Writes one element past the end of its output slice.
struct OobWriteKernel<'a> {
    out: SyncUnsafeSlice<'a, f32>,
}

impl Kernel for OobWriteKernel<'_> {
    fn name(&self) -> String {
        "seeded_oob_write".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(8 * 4)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.misc(1);
        if ctx.functional() {
            unsafe { self.out.write(8, 1.0) }; // one past the end
        }
    }
}

#[test]
fn oob_slice_write_is_reported() {
    let gpu = Gpu::v100();
    let mut data = vec![0.0f32; 8];
    let kernel = OobWriteKernel {
        out: SyncUnsafeSlice::new(&mut data),
    };
    let (_, report) = sanitize(&gpu, &kernel);
    assert_eq!(report.violation_count, 1);
    assert_eq!(
        report.violations[0],
        SanitizerViolation::OutOfBoundsWrite { index: 8, len: 8 }
    );
    // The sanitizer suppressed the write, so the buffer is untouched.
    assert!(data.iter().all(|&v| v == 0.0));
}

#[test]
#[should_panic(expected = "out of bounds")]
fn oob_slice_write_panics_outside_sanitize_mode() {
    let gpu = Gpu::v100();
    let mut data = vec![0.0f32; 8];
    let kernel = OobWriteKernel {
        out: SyncUnsafeSlice::new(&mut data),
    };
    let _ = gpu.launch(&kernel);
}

/// Two blocks both write output index 0: a cross-block race unless the
/// kernel declares atomic accumulation.
struct OverlapKernel<'a> {
    out: SyncUnsafeSlice<'a, f32>,
    atomic: bool,
}

impl Kernel for OverlapKernel<'_> {
    fn name(&self) -> String {
        "seeded_overlap".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(2)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(4 * 4)
    }
    fn atomic_output(&self) -> bool {
        self.atomic
    }
    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        ctx.st_global_trace(BUF, 0, 4);
        if ctx.functional() {
            unsafe { self.out.write(0, block.x as f32) };
        }
    }
}

#[test]
fn cross_block_race_is_reported() {
    let gpu = Gpu::v100();
    let mut data = vec![0.0f32; 4];
    let kernel = OverlapKernel {
        out: SyncUnsafeSlice::new(&mut data),
        atomic: false,
    };
    let (_, report) = sanitize(&gpu, &kernel);
    assert_eq!(report.violation_count, 1);
    assert!(
        matches!(
            report.violations[0],
            SanitizerViolation::CrossBlockRace { index: 0, .. }
        ),
        "expected a race at index 0, got {:?}",
        report.violations[0]
    );
}

#[test]
fn atomic_kernels_are_exempt_from_racecheck() {
    let gpu = Gpu::v100();
    let mut data = vec![0.0f32; 4];
    let kernel = OverlapKernel {
        out: SyncUnsafeSlice::new(&mut data),
        atomic: true,
    };
    let (_, report) = sanitize(&gpu, &kernel);
    assert_eq!(
        report.violation_count, 0,
        "atomic overlap must not be flagged: {report}"
    );
}

/// Issues a vec4 load from byte address 4 — not 16-byte aligned.
struct MisalignedKernel;

impl Kernel for MisalignedKernel {
    fn name(&self) -> String {
        "seeded_misaligned_vec4".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(1024)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.ld_global(BUF, 4, 32, 4, 4);
    }
}

#[test]
fn misaligned_vector_access_is_reported() {
    let gpu = Gpu::v100();
    let (_, report) = sanitize(&gpu, &MisalignedKernel);
    assert_eq!(report.violation_count, 1);
    assert_eq!(
        report.violations[0],
        SanitizerViolation::Misaligned {
            buffer: "out",
            byte_addr: 4,
            vec_width: 4,
            elem_bytes: 4
        }
    );
}

/// Multi-warp block stores to shared memory and reads it back with no
/// `bar_sync` in between. With `barrier: true` the kernel is correct.
struct SmemKernel {
    barrier: bool,
}

impl Kernel for SmemKernel {
    fn name(&self) -> String {
        "seeded_smem_raw".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(64) // two warps: cross-warp visibility needs the barrier
    }
    fn shared_mem_bytes(&self) -> u32 {
        1024
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(1024)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.smem_store(2, 256, SmemScope::Block);
        if self.barrier {
            ctx.bar_sync();
        }
        ctx.smem_load(2, 256, SmemScope::Block);
    }
}

#[test]
fn missing_barrier_is_reported() {
    let gpu = Gpu::v100();
    let (_, report) = sanitize(&gpu, &SmemKernel { barrier: false });
    assert_eq!(report.violation_count, 1);
    assert_eq!(
        report.violations[0],
        SanitizerViolation::MissingBarrier { epoch: 0 }
    );
}

#[test]
fn barriered_smem_roundtrip_is_clean() {
    let gpu = Gpu::v100();
    let (_, report) = sanitize(&gpu, &SmemKernel { barrier: true });
    assert_eq!(report.violation_count, 0, "{report}");
}

/// Stores past the declared footprint of its global buffer.
struct GlobalOobKernel;

impl Kernel for GlobalOobKernel {
    fn name(&self) -> String {
        "seeded_global_oob".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(64)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.st_global_trace(BUF, 32, 64); // [32, 96) overruns the 64-byte buffer
    }
}

#[test]
fn global_footprint_overrun_is_reported() {
    let gpu = Gpu::v100();
    let (_, report) = sanitize(&gpu, &GlobalOobKernel);
    assert_eq!(report.violation_count, 1);
    assert_eq!(
        report.violations[0],
        SanitizerViolation::GlobalOutOfBounds {
            buffer: "out",
            byte_addr: 32,
            bytes: 64,
            footprint: 64,
        }
    );
}

/// Heavily bank-conflicted shared loads: a lint warning, not a violation.
struct BankConflictKernel;

impl Kernel for BankConflictKernel {
    fn name(&self) -> String {
        "seeded_bank_conflict".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(1)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }
    fn shared_mem_bytes(&self) -> u32 {
        4096
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(4096)
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        ctx.st_shared(32, 1, 4, 1);
        ctx.bar_sync();
        ctx.ld_shared(32, 1, 4, 16); // 16-way conflict
    }
}

#[test]
fn bank_conflicts_warn_but_do_not_fail() {
    let gpu = Gpu::v100();
    let (_, report) = sanitize(&gpu, &BankConflictKernel);
    assert_eq!(report.violation_count, 0);
    assert_eq!(report.warning_count, 1);
    assert_eq!(
        report.warnings[0],
        SanitizerWarning::BankConflict { ways: 16 }
    );
}

/// A well-behaved kernel: coalesced IO, barriers where needed, in-bounds
/// writes partitioned across blocks.
struct CleanKernel<'a> {
    out: SyncUnsafeSlice<'a, f32>,
}

impl Kernel for CleanKernel<'_> {
    fn name(&self) -> String {
        "clean_kernel".into()
    }
    fn grid(&self) -> Dim3 {
        Dim3::x(4)
    }
    fn block_dim(&self) -> Dim3 {
        Dim3::x(64)
    }
    fn shared_mem_bytes(&self) -> u32 {
        256
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        buffer(4 * 64 * 4)
    }
    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let base = block.x as usize * 64;
        ctx.smem_store(2, 256, SmemScope::Block);
        ctx.bar_sync();
        ctx.smem_load(2, 256, SmemScope::Block);
        ctx.st_global_trace(BUF, base as u64 * 4, 64 * 4);
        if ctx.functional() {
            for i in 0..64 {
                unsafe { self.out.write(base + i, i as f32) };
            }
        }
    }
}

#[test]
fn clean_kernel_reports_nothing_and_still_computes() {
    let gpu = Gpu::v100();
    let mut data = vec![0.0f32; 256];
    let kernel = CleanKernel {
        out: SyncUnsafeSlice::new(&mut data),
    };
    let (stats, report) = sanitize(&gpu, &kernel);
    assert_eq!(report.violation_count, 0, "{report}");
    assert_eq!(report.warning_count, 0);
    assert_eq!(report.blocks, 4);
    assert!(stats.time_us > 0.0);
    assert_eq!(data[65], 1.0); // functional output still produced
}

#[test]
fn sanitized_stats_match_plain_launch() {
    // Sanitizing must not perturb the cost model: same kernel, same stats.
    let gpu = Gpu::v100();
    let mut a = vec![0.0f32; 256];
    let plain = {
        let kernel = CleanKernel {
            out: SyncUnsafeSlice::new(&mut a),
        };
        gpu.launch(&kernel)
    };
    let mut b = vec![0.0f32; 256];
    let kernel = CleanKernel {
        out: SyncUnsafeSlice::new(&mut b),
    };
    let (sanitized, _) = sanitize(&gpu, &kernel);
    assert_eq!(plain.time_us, sanitized.time_us);
    assert_eq!(plain.instructions, sanitized.instructions);
    assert_eq!(plain.dram_bytes, sanitized.dram_bytes);
}

#[test]
fn launch_summary_accumulates_sanitizer_counts() {
    let gpu = Gpu::v100();
    let mut summary = LaunchSummary::default();

    let mut data = vec![0.0f32; 4];
    let kernel = OverlapKernel {
        out: SyncUnsafeSlice::new(&mut data),
        atomic: false,
    };
    let (stats, report) = sanitize(&gpu, &kernel);
    summary.add_sanitized(&stats, &report);

    let (stats, report) = sanitize(&gpu, &BankConflictKernel);
    summary.add_sanitized(&stats, &report);

    assert_eq!(summary.launches, 2);
    assert_eq!(summary.violations, 1);
    assert_eq!(summary.warnings, 1);
}

#[test]
fn sanitize_cached_skips_resanitizing_identical_fingerprints() {
    let gpu = Gpu::v100();
    let cache = gpu_sim::LaunchCache::new();
    let fingerprint = 0xF00D;

    let mut a = vec![0.0f32; 256];
    let (cold_stats, cold_report, hit) = {
        let kernel = CleanKernel {
            out: SyncUnsafeSlice::new(&mut a),
        };
        sanitize_cached(&gpu, &cache, fingerprint, &kernel)
    };
    assert!(!hit, "first sight of the fingerprint cannot be a cache hit");
    assert_eq!(a[65], 1.0);

    // Same kernel shape, same fingerprint: the whole dynamic pass is
    // skipped, the memoized report replays, the output is still computed,
    // and the skip is counted.
    let skips_before = gpu_sim::metrics::global().get("sanitizer_skips");
    let mut b = vec![0.0f32; 256];
    let (warm_stats, warm_report, hit) = {
        let kernel = CleanKernel {
            out: SyncUnsafeSlice::new(&mut b),
        };
        sanitize_cached(&gpu, &cache, fingerprint, &kernel)
    };
    assert!(
        hit,
        "fingerprint-identical relaunch must serve from the cache"
    );
    assert_eq!(
        b[65], 1.0,
        "cache hits must still produce functional output"
    );
    assert_eq!(warm_stats.time_us, cold_stats.time_us);
    assert_eq!(warm_report.violation_count, cold_report.violation_count);
    assert_eq!(warm_report.warning_count, cold_report.warning_count);
    assert_eq!(
        gpu_sim::metrics::global().get("sanitizer_skips"),
        skips_before + 1,
        "the skip must be counted in the metrics registry"
    );
}

#[test]
fn sanitize_cached_distinguishes_fingerprints() {
    let gpu = Gpu::v100();
    let cache = gpu_sim::LaunchCache::new();

    let mut a = vec![0.0f32; 256];
    let kernel = CleanKernel {
        out: SyncUnsafeSlice::new(&mut a),
    };
    let (_, _, hit) = sanitize_cached(&gpu, &cache, 1, &kernel);
    assert!(!hit);
    // A different operand fingerprint is a different launch: no false hit.
    let (_, _, hit) = sanitize_cached(&gpu, &cache, 2, &kernel);
    assert!(
        !hit,
        "distinct fingerprints must not share sanitize entries"
    );
    let (_, _, hit) = sanitize_cached(&gpu, &cache, 1, &kernel);
    assert!(hit);
}

#[test]
fn sanitize_cached_replays_violations_from_the_cache() {
    // A violating kernel's memoized report must keep reporting the
    // violation on hits — the cache cannot launder a bad kernel.
    // (GlobalOobKernel violates through its cost trace, so the hit's
    // functional replay is safe to run.)
    let gpu = Gpu::v100();
    let cache = gpu_sim::LaunchCache::new();

    let (_, cold_report, hit) = sanitize_cached(&gpu, &cache, 9, &GlobalOobKernel);
    assert!(!hit);
    assert_eq!(cold_report.violation_count, 1);

    let (_, report, hit) = sanitize_cached(&gpu, &cache, 9, &GlobalOobKernel);
    assert!(hit);
    assert_eq!(report.violation_count, 1);
    assert_eq!(report.violations, cold_report.violations);
}
