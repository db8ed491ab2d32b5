//! Fault-tolerant SpMM dispatch: detection guards plus a
//! retry-with-degradation ladder.
//!
//! Production serving cannot crash because one kernel launch hit a transient
//! device fault. This module wraps the Sputnik SpMM in a dispatcher that
//!
//! 1. validates inputs once (shapes, finiteness) — violations here are
//!    *deterministic* and returned immediately, no rung can fix them;
//! 2. launches the requested Sputnik configuration and checks the output
//!    with two guards: a NaN/Inf scan and an ABFT-style checksum
//!    (`sum(C) == sum_nz(a_val * rowsum(B)[a_col])`, accumulated in f64);
//! 3. on failure, descends a degradation ladder with bounded retries:
//!    [`Rung::Sputnik`] (retry the same config) → [`Rung::Heuristic`]
//!    (the paper's [`SpmmConfig::heuristic`] selection) → [`Rung::Fallback`]
//!    (an internal row-per-block kernel whose name contains no `"sputnik"`,
//!    so name-matched fault plans spare it) → [`Rung::CpuReference`]
//!    (host execution, always available);
//! 4. records which rung served the call, every failed attempt, and the
//!    simulated backoff spent, in a [`DispatchReport`].
//!
//! The guards run on the host against the functional output and never touch
//! the simulated [`LaunchStats`]: with an empty
//! [`FaultPlan`](gpu_sim::FaultPlan), dispatch returns statistics identical
//! to a direct [`crate::spmm()`] call.

use crate::config::SpmmConfig;
use crate::error::{is_transient, SputnikError};
use crate::reference;
use crate::spmm::{
    operand_fingerprint, require_finite, SpmmKernel, BUF_A_INDICES, BUF_A_OFFSETS, BUF_A_VALUES,
    BUF_B, BUF_C,
};
use gpu_sim::{
    AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext, BufferBound,
    BufferSpec, Dim3, Fingerprint, Gpu, Kernel, Launch, LaunchCache, LaunchStats, StageBound,
    StaticFacts, SyncUnsafeSlice,
};
use sparse::{CsrMatrix, Matrix, RowSwizzle, Scalar};

/// One rung of the degradation ladder, from fastest to most conservative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// The requested Sputnik configuration.
    Sputnik,
    /// The paper's heuristic configuration for this problem shape.
    Heuristic,
    /// The internal row-per-block fallback kernel (cusparse-style).
    Fallback,
    /// Host execution of the golden reference.
    CpuReference,
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rung::Sputnik => write!(f, "sputnik"),
            Rung::Heuristic => write!(f, "heuristic"),
            Rung::Fallback => write!(f, "fallback"),
            Rung::CpuReference => write!(f, "cpu-reference"),
        }
    }
}

/// Tuning knobs for the dispatcher.
#[derive(Debug, Clone)]
pub struct DispatchPolicy {
    /// Attempts per GPU rung (first try + retries). Retries are only spent
    /// on transient errors; deterministic failures skip straight to the
    /// next rung.
    pub attempts_per_rung: u32,
    /// Simulated backoff before the r-th retry of a rung, in microseconds:
    /// `backoff_base_us << r`, accumulated into the report (no host sleep).
    pub backoff_base_us: f64,
    /// Scan functional outputs for NaN/Inf.
    pub check_finite: bool,
    /// Verify the ABFT row-sum checksum on functional outputs.
    pub check_checksum: bool,
    /// Relative tolerance for the checksum guard. The guard compares an
    /// f64 shadow sum against f32 kernel arithmetic, so this must absorb
    /// rounding differences — it targets gross corruption, not ULPs.
    pub checksum_rel_tol: f64,
}

impl Default for DispatchPolicy {
    fn default() -> Self {
        Self {
            attempts_per_rung: 2,
            backoff_base_us: 50.0,
            check_finite: true,
            check_checksum: true,
            checksum_rel_tol: 1e-3,
        }
    }
}

/// A failed attempt, kept for post-mortems.
#[derive(Debug, Clone)]
pub struct Attempt {
    pub rung: Rung,
    pub error: SputnikError,
}

/// What happened during one dispatched call.
#[derive(Debug, Clone)]
pub struct DispatchReport {
    /// The rung that produced the returned result.
    pub served_by: Rung,
    /// Launch statistics of the serving launch (`None` when the CPU served).
    pub stats: Option<LaunchStats>,
    /// Every failed attempt, in order.
    pub attempts: Vec<Attempt>,
    /// Total simulated retry backoff, microseconds.
    pub backoff_us: f64,
}

impl DispatchReport {
    /// True when the requested configuration served without degradation.
    pub fn clean(&self) -> bool {
        self.served_by == Rung::Sputnik && self.attempts.is_empty()
    }
}

/// Aggregate rung usage across many dispatched calls.
///
/// [`DegradationStats::record`] also mirrors each call into the process-wide
/// [`gpu_sim::metrics`] registry as monotonic per-rung counters (see
/// [`DegradationStats::RUNG_COUNTERS`]), so serving sweeps and plain kernel
/// sweeps share one degradation dashboard: any snapshot of the global
/// registry shows how many calls each rung served, regardless of which
/// subsystem dispatched them.
#[derive(Debug, Clone, Default)]
pub struct DegradationStats {
    pub calls: u64,
    pub served: [u64; 4],
    pub failed_attempts: u64,
    pub backoff_us: f64,
}

impl DegradationStats {
    /// Global-metrics counter name for each rung, indexed by `Rung as usize`.
    pub const RUNG_COUNTERS: [&'static str; 4] = [
        "dispatch_rung_sputnik",
        "dispatch_rung_heuristic",
        "dispatch_rung_fallback",
        "dispatch_rung_cpu_reference",
    ];

    pub fn record(&mut self, report: &DispatchReport) {
        self.calls += 1;
        self.served[report.served_by as usize] += 1;
        self.failed_attempts += report.attempts.len() as u64;
        self.backoff_us += report.backoff_us;
        gpu_sim::metrics::global().incr(Self::RUNG_COUNTERS[report.served_by as usize], 1);
    }

    /// Fraction of calls served by the requested Sputnik configuration.
    pub fn clean_fraction(&self) -> f64 {
        if self.calls == 0 {
            return 1.0;
        }
        self.served[Rung::Sputnik as usize] as f64 / self.calls as f64
    }
}

/// Fault-tolerant SpMM: `A (sparse) * B (dense)` through the degradation
/// ladder. Returns the output and a report of which rung served.
///
/// Errors are returned only for deterministic input violations (shape
/// mismatch, non-finite operands): anything transient degrades to a slower
/// rung, and the CPU reference rung cannot fail.
pub fn spmm<T: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
    cfg: SpmmConfig,
    policy: &DispatchPolicy,
) -> Result<(Matrix<T>, DispatchReport), SputnikError> {
    spmm_with_cache(gpu, None, a, b, cfg, policy)
}

/// [`spmm`] with every GPU rung consulting a cross-launch [`LaunchCache`].
/// A hit skips the cost simulation and replays only the functional output
/// (see [`Gpu::run`]), so the detection guards still inspect a
/// freshly computed `C`; the returned statistics are the memoized ones,
/// bit-identical to a cold launch.
pub fn spmm_cached<T: Scalar>(
    gpu: &Gpu,
    cache: &LaunchCache,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
    cfg: SpmmConfig,
    policy: &DispatchPolicy,
) -> Result<(Matrix<T>, DispatchReport), SputnikError> {
    spmm_with_cache(gpu, Some(cache), a, b, cfg, policy)
}

fn spmm_with_cache<T: Scalar>(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
    cfg: SpmmConfig,
    policy: &DispatchPolicy,
) -> Result<(Matrix<T>, DispatchReport), SputnikError> {
    if a.cols() != b.rows() {
        return Err(SputnikError::ShapeMismatch {
            expected: format!("B with {} rows", a.cols()),
            found: format!("{}x{}", b.rows(), b.cols()),
            context: "dispatch spmm inner dimension",
        });
    }
    if b.layout() != sparse::Layout::RowMajor {
        return Err(SputnikError::IllegalConfig {
            reason: "Sputnik uses row-major dense operands".into(),
        });
    }
    require_finite("a", a.values())?;
    require_finite("b", b.as_slice())?;

    // Shared by every checksum evaluation: per-row sums of B, in f64.
    let b_rowsums = checksum_b_rowsums(b);
    let mut attempts = Vec::new();
    let mut backoff_us = 0.0f64;

    // GPU rungs: requested config, heuristic config, internal fallback.
    let heuristic = SpmmConfig::heuristic::<T>(b.cols());
    let gpu_rungs: Vec<(Rung, Option<SpmmConfig>)> = {
        let mut r = vec![(Rung::Sputnik, Some(cfg))];
        if heuristic != cfg {
            r.push((Rung::Heuristic, Some(heuristic)));
        }
        r.push((Rung::Fallback, None));
        r
    };

    for (rung, rung_cfg) in gpu_rungs {
        for attempt in 0..policy.attempts_per_rung {
            if attempt > 0 {
                backoff_us += policy.backoff_base_us * f64::from(1u32 << (attempt - 1));
            }
            let result = match rung_cfg {
                Some(c) => launch_sputnik(gpu, cache, a, b, c),
                None => launch_fallback(gpu, cache, a, b),
            };
            match result.and_then(|(out, stats)| {
                check_output(&out, a, &b_rowsums, rung_cfg, policy, &stats.kernel)?;
                Ok((out, stats))
            }) {
                Ok((out, stats)) => {
                    if rung != Rung::Sputnik {
                        gpu_sim::metrics::global().incr("dispatch_degraded", 1);
                        if gpu_sim::trace::enabled() {
                            gpu_sim::trace::instant(
                                "dispatch",
                                "dispatch",
                                &format!("degraded: served by {rung} ({})", stats.kernel),
                            );
                        }
                    }
                    let report = DispatchReport {
                        served_by: rung,
                        stats: Some(stats),
                        attempts: std::mem::take(&mut attempts),
                        backoff_us,
                    };
                    return Ok((out, report));
                }
                Err(err) => {
                    let transient = is_transient(&err);
                    gpu_sim::metrics::global().incr("dispatch_failed_attempts", 1);
                    if gpu_sim::trace::enabled() {
                        gpu_sim::trace::instant(
                            "dispatch",
                            "dispatch",
                            &format!("rung {rung} attempt {attempt} failed: {err}"),
                        );
                    }
                    attempts.push(Attempt { rung, error: err });
                    if !transient {
                        // Deterministic failure: retrying the same rung
                        // cannot help.
                        break;
                    }
                }
            }
        }
    }

    // Last rung: host execution. Identical accumulation order to the
    // fallback kernel, so results remain bit-stable across rungs for f32.
    gpu_sim::metrics::global().incr("dispatch_degraded", 1);
    if gpu_sim::trace::enabled() {
        gpu_sim::trace::instant("dispatch", "dispatch", "degraded: served by cpu-reference");
    }
    let out = reference_as_t::<T>(a, b);
    let report = DispatchReport {
        served_by: Rung::CpuReference,
        stats: None,
        attempts,
        backoff_us,
    };
    Ok((out, report))
}

/// One GPU rung's launch request: audited (a `Refuted` verdict is a
/// deterministic failure, so the ladder abandons the rung at once) and,
/// when the ladder has a cache, memoized under the operands' fingerprint.
fn rung_request<'c, T: Scalar>(
    cache: Option<&'c LaunchCache>,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
) -> Launch<'c> {
    Launch {
        cache: cache.map(|c| (c, operand_fingerprint(a, b.cols()))),
        ..Launch::FUNCTIONAL
    }
}

fn launch_sputnik<T: Scalar>(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
    cfg: SpmmConfig,
) -> Result<(Matrix<T>, LaunchStats), SputnikError> {
    let swizzle = RowSwizzle::new(a, cfg.row_swizzle);
    let mut out = Matrix::<T>::zeros(a.rows(), b.cols());
    let launched = {
        let kernel = SpmmKernel::try_new(a, b, &mut out, &swizzle, cfg)?;
        gpu.run(&rung_request(cache, a, b), &kernel)?
    };
    Ok((out, launched.stats))
}

fn launch_fallback<T: Scalar>(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
) -> Result<(Matrix<T>, LaunchStats), SputnikError> {
    let mut out = Matrix::<T>::zeros(a.rows(), b.cols());
    let launched = {
        let kernel = FallbackSpmmKernel::new(a, b, &mut out);
        gpu.run(&rung_request(cache, a, b), &kernel)?
    };
    Ok((out, launched.stats))
}

/// CPU rung: the golden reference, converted to the storage type.
fn reference_as_t<T: Scalar>(a: &CsrMatrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let c32 = reference::spmm(a, &b.to_f32());
    let mut out = Matrix::<T>::zeros(a.rows(), b.cols());
    for (o, &v) in out.as_mut_slice().iter_mut().zip(c32.as_slice()) {
        *o = T::from_f32(v);
    }
    out
}

/// Per-row sums of B in f64, the checksum's precomputed ingredient.
fn checksum_b_rowsums<T: Scalar>(b: &Matrix<T>) -> Vec<f64> {
    let n = b.cols();
    let data = b.as_slice();
    (0..b.rows())
        .map(|r| {
            data[r * n..(r + 1) * n]
                .iter()
                .map(|v| f64::from(v.to_f32()))
                .sum()
        })
        .collect()
}

/// Detection guards: NaN/Inf scan plus the ABFT row-sum checksum
/// `sum(C) == sum over nonzeros of a_val * rowsum(B)[a_col]`.
fn check_output<T: Scalar>(
    out: &Matrix<T>,
    a: &CsrMatrix<T>,
    b_rowsums: &[f64],
    cfg: Option<SpmmConfig>,
    policy: &DispatchPolicy,
    kernel: &str,
) -> Result<(), SputnikError> {
    if policy.check_finite {
        for v in out.as_slice() {
            if !v.to_f32().is_finite() {
                return Err(SputnikError::CorruptOutput {
                    kernel: kernel.to_string(),
                    reason: "non-finite value in output".into(),
                });
            }
        }
    }
    // The checksum is a linear identity: a fused ReLU epilogue breaks it.
    let nonlinear = cfg.is_some_and(|c| c.fused_bias_relu);
    if policy.check_checksum && !nonlinear {
        let expected: f64 = a
            .col_indices()
            .iter()
            .zip(a.values())
            .map(|(&col, v)| f64::from(v.to_f32()) * b_rowsums[col as usize])
            .sum();
        let actual: f64 = out.as_slice().iter().map(|v| f64::from(v.to_f32())).sum();
        // Scale-aware tolerance: rounding grows with the mass being summed.
        let scale: f64 = a
            .col_indices()
            .iter()
            .zip(a.values())
            .map(|(&col, v)| (f64::from(v.to_f32()) * b_rowsums[col as usize]).abs())
            .sum::<f64>()
            .max(1.0);
        // `within` is false for a NaN sum (NaN fails every comparison), so
        // corruption is flagged rather than slipping through.
        let within = (actual - expected).abs() <= policy.checksum_rel_tol * scale;
        if !within {
            return Err(SputnikError::CorruptOutput {
                kernel: kernel.to_string(),
                reason: format!("checksum mismatch: expected {expected:.6e}, found {actual:.6e}"),
            });
        }
    }
    Ok(())
}

/// The internal fallback kernel: one thread block per output row, 32 lanes
/// streaming the row's nonzeros in order — the simple cusparse-style
/// decomposition. No tuning parameters, no shared-memory staging, minimal
/// resource footprint: if this cannot launch, nothing can. Its name contains
/// no `"sputnik"`, so fault plans filtered to Sputnik kernels spare it, and
/// it does not implement `poison_output`, modeling a conservatively
/// ECC-checked path.
///
/// Accumulation is f32 in nonzero order per row — the same order as
/// [`reference::spmm`] — so f32 results are bit-identical to the CPU rung.
pub struct FallbackSpmmKernel<'a, T: Scalar> {
    a: &'a CsrMatrix<T>,
    b: &'a Matrix<T>,
    out: SyncUnsafeSlice<'a, T>,
    n: usize,
}

impl<'a, T: Scalar> FallbackSpmmKernel<'a, T> {
    pub fn new(a: &'a CsrMatrix<T>, b: &'a Matrix<T>, out: &'a mut Matrix<T>) -> Self {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        assert_eq!(out.rows(), a.rows());
        assert_eq!(out.cols(), b.cols());
        let n = b.cols();
        Self {
            a,
            b,
            out: SyncUnsafeSlice::new(out.as_mut_slice()),
            n,
        }
    }
}

impl<T: Scalar> Kernel for FallbackSpmmKernel<'_, T> {
    fn name(&self) -> String {
        format!("fallback_spmm_{}", T::TAG)
    }

    fn grid(&self) -> Dim3 {
        Dim3::x((self.a.rows() as u32).max(1))
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }

    fn regs_per_thread(&self) -> u32 {
        24
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let nnz = self.a.nnz() as u64;
        let eb = T::BYTES as u64;
        vec![
            BufferSpec {
                id: BUF_A_VALUES,
                name: "a_values",
                footprint_bytes: nnz * eb,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_A_INDICES,
                name: "a_indices",
                footprint_bytes: nnz * 4,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_A_OFFSETS,
                name: "a_row_offsets",
                footprint_bytes: (self.a.rows() as u64 + 1) * 4,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_B,
                name: "b",
                footprint_bytes: (self.a.cols() * self.n) as u64 * eb,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_C,
                name: "c",
                footprint_bytes: (self.a.rows() * self.n) as u64 * eb,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    /// Structural cost signature (see [`Kernel::block_signature`]): one row
    /// per block, so the trace is fixed by the row's nonzero count and the
    /// sector alignment (mod 32) of the row's offset, its output strip, and
    /// each gathered B row. Chunked strip loads advance by multiples of the
    /// sector size, so only the starting alignment class matters.
    fn block_signature(&self, block: Dim3) -> Option<u64> {
        let row = block.x as usize;
        let mut fp = Fingerprint::new();
        if row >= self.a.rows() {
            fp.write_u64(u64::MAX);
            return Some(fp.finish());
        }
        let eb = T::BYTES as u64;
        let n = self.n as u64;
        let offset = self.a.row_offsets()[row] as u64;
        let nnz = self.a.row_len(row);
        fp.write_u64(row as u64 * 4 % 32);
        fp.write_u64(nnz as u64);
        fp.write_u64(offset * eb % 32);
        fp.write_u64(offset * 4 % 32);
        fp.write_u64(row as u64 * n * eb % 32);
        if (n * eb).is_multiple_of(32) {
            fp.write_u64(0);
        } else {
            for &col in &self.a.col_indices()[offset as usize..offset as usize + nnz] {
                fp.write_u64(col as u64 * n * eb % 32);
            }
        }
        Some(fp.finish())
    }

    /// Static facts (see [`gpu_sim::static_check`]): one row per block with
    /// purely scalar chunked loads, so every extent follows from the row
    /// walk — values/indices stay inside `[offset, offset + nnz)`, the
    /// offsets read touches `row * 4 .. row * 4 + 8`, B strips end at
    /// `(col + 1) * n <= cols * n` (validated CSR indices), and the output
    /// strip ends at `(row + 1) * n <= rows * n`. No shared-memory staging
    /// at all, and the block is a single warp.
    fn static_facts(&self) -> StaticFacts {
        let nnz = self.a.nnz() as u64;
        let rows = self.a.rows() as u64;
        let cols = self.a.cols() as u64;
        let n = self.n as u64;
        let eb = T::BYTES as u64;
        StaticFacts {
            bounds: Some(vec![
                BufferBound {
                    slot: BUF_A_VALUES.0,
                    bound: AccessBound::Extent(nnz * eb),
                },
                BufferBound {
                    slot: BUF_A_INDICES.0,
                    bound: AccessBound::Extent(nnz * 4),
                },
                BufferBound {
                    slot: BUF_A_OFFSETS.0,
                    bound: AccessBound::Extent((rows + 1) * 4),
                },
                BufferBound {
                    slot: BUF_B.0,
                    bound: AccessBound::Extent(cols * n * eb),
                },
                BufferBound {
                    slot: BUF_C.0,
                    bound: AccessBound::Extent(rows * n * eb),
                },
            ]),
            alignment: AlignmentFacts::ScalarOnly,
            barrier: BarrierFacts::WarpSynchronous,
            stage: StageBound::Bytes(0),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let row = block.x as usize;
        if row >= self.a.rows() {
            return;
        }
        let eb = T::BYTES;
        let n = self.n;
        let offset = self.a.row_offsets()[row] as usize;
        let nnz = self.a.row_len(row);

        // ---- Cost trace: scalar row walk, no staging, no vectorization.
        // Skipped wholesale on cache-hit replays (the cost is discarded).
        if ctx.recording() {
            ctx.misc(4);
            ctx.ld_global(BUF_A_OFFSETS, row as u64 * 4, 2, 1, 4);
            if nnz > 0 {
                let loads = (nnz as u64).div_ceil(32);
                for chunk in 0..loads {
                    let addr = (offset as u64 + chunk * 32) * eb as u64;
                    let lanes = 32.min(nnz as u32 - (chunk * 32) as u32);
                    ctx.ld_global(BUF_A_VALUES, addr, lanes, 1, eb);
                    ctx.ld_global(BUF_A_INDICES, (offset as u64 + chunk * 32) * 4, lanes, 1, 4);
                }
                // One full B-row sweep per nonzero, strip-mined over 32 lanes.
                let strips_per_row = (n as u64).div_ceil(32);
                for &col in &self.a.col_indices()[offset..offset + nnz] {
                    for s in 0..strips_per_row {
                        let addr = (col as u64 * n as u64 + s * 32) * eb as u64;
                        let lanes = 32.min(n as u32 - (s * 32) as u32);
                        ctx.ld_global(BUF_B, addr, lanes, 1, eb);
                    }
                    ctx.cost.fma_instrs += strips_per_row;
                    ctx.misc(2);
                }
                ctx.cost.flops += 2 * (nnz * n) as u64;
            }
            let strips_per_row = (n as u64).div_ceil(32);
            for s in 0..strips_per_row {
                let addr = (row as u64 * n as u64 + s * 32) * eb as u64;
                let lanes = 32.min(n as u32 - (s * 32) as u32);
                ctx.st_global(BUF_C, addr, lanes, 1, eb);
            }
        }

        // ---- Functional: in-order accumulation matching reference::spmm
        // (same lanes helper, so outputs stay bit-identical to it).
        if ctx.functional() {
            let values = self.a.values();
            let indices = self.a.col_indices();
            let bdata = self.b.as_slice();
            let mut acc = ctx.scratch_f32(n);
            gpu_sim::lanes::fma_accumulate(
                &mut acc,
                (offset..offset + nnz)
                    .map(|pos| (values[pos].to_f32(), &bdata[indices[pos] as usize * n..])),
                |bv| bv.to_f32(),
            );
            for (x, &v) in acc.iter().enumerate() {
                unsafe { self.out.write(row * n + x, T::from_f32(v)) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen;

    #[test]
    fn fallback_kernel_matches_reference_bitwise() {
        let a = gen::uniform(40, 64, 0.7, 21);
        let b = Matrix::<f32>::random(64, 48, 22);
        let gpu = Gpu::v100();
        let mut out = Matrix::<f32>::zeros(40, 48);
        let kernel = FallbackSpmmKernel::new(&a, &b, &mut out);
        let stats = gpu
            .run(&Launch::FUNCTIONAL, &kernel)
            .expect("fallback launches")
            .stats;
        assert!(stats.time_us > 0.0);
        assert!(
            !stats.kernel.contains("sputnik"),
            "name must not match sputnik filters"
        );
        let expect = reference::spmm(&a, &b);
        assert_eq!(
            out.as_slice(),
            expect.as_slice(),
            "bit-identical to the reference"
        );
    }

    #[test]
    fn clean_dispatch_serves_from_sputnik_rung() {
        let a = gen::uniform(32, 64, 0.8, 23);
        let b = Matrix::<f32>::random(64, 32, 24);
        let gpu = Gpu::v100();
        let (out, report) = spmm(
            &gpu,
            &a,
            &b,
            SpmmConfig::default(),
            &DispatchPolicy::default(),
        )
        .unwrap();
        assert!(report.clean());
        assert_eq!(report.served_by, Rung::Sputnik);
        assert!(report.stats.is_some());
        assert_eq!(report.backoff_us, 0.0);
        let expect = reference::spmm(&a, &b);
        assert!(out.max_abs_diff(&expect) < 1e-3);
    }

    #[test]
    fn shape_mismatch_is_not_recoverable() {
        let a = gen::uniform(8, 16, 0.5, 25);
        let b = Matrix::<f32>::random(24, 8, 26);
        let gpu = Gpu::v100();
        let err = spmm(
            &gpu,
            &a,
            &b,
            SpmmConfig::default(),
            &DispatchPolicy::default(),
        )
        .expect_err("shapes disagree");
        assert!(matches!(err, SputnikError::ShapeMismatch { .. }));
    }

    #[test]
    fn non_finite_operand_is_rejected_up_front() {
        let a = gen::uniform(8, 16, 0.5, 27);
        let mut b = Matrix::<f32>::random(16, 8, 28);
        b.set(3, 3, f32::NAN);
        let gpu = Gpu::v100();
        let err = spmm(
            &gpu,
            &a,
            &b,
            SpmmConfig::default(),
            &DispatchPolicy::default(),
        )
        .expect_err("NaN operand");
        assert!(matches!(
            err,
            SputnikError::NonFiniteOperand { operand: "b", .. }
        ));
    }

    #[test]
    fn illegal_config_degrades_to_heuristic() {
        let a = gen::uniform(16, 32, 0.6, 29);
        let b = Matrix::<f32>::random(32, 16, 30);
        let gpu = Gpu::v100();
        // vector_width 3 is illegal; dispatch must fall through to the
        // heuristic rung rather than erroring.
        let bad = SpmmConfig {
            vector_width: 3,
            ..SpmmConfig::default()
        };
        let (out, report) = spmm(&gpu, &a, &b, bad, &DispatchPolicy::default()).unwrap();
        assert_eq!(report.served_by, Rung::Heuristic);
        // Deterministic failure: exactly one attempt burned on the bad rung.
        assert_eq!(report.attempts.len(), 1);
        assert!(matches!(
            report.attempts[0].error,
            SputnikError::IllegalConfig { .. }
        ));
        let expect = reference::spmm(&a, &b);
        assert!(out.max_abs_diff(&expect) < 1e-3);
    }

    #[test]
    fn degradation_stats_aggregate() {
        let mut stats = DegradationStats::default();
        let a = gen::uniform(16, 32, 0.6, 31);
        let b = Matrix::<f32>::random(32, 16, 32);
        let gpu = Gpu::v100();
        for _ in 0..3 {
            let (_, report) = spmm(
                &gpu,
                &a,
                &b,
                SpmmConfig::default(),
                &DispatchPolicy::default(),
            )
            .unwrap();
            stats.record(&report);
        }
        assert_eq!(stats.calls, 3);
        assert_eq!(stats.served[Rung::Sputnik as usize], 3);
        assert_eq!(stats.clean_fraction(), 1.0);
    }

    #[test]
    fn cached_dispatch_replays_outputs_and_stats() {
        let a = gen::uniform(32, 64, 0.8, 61);
        let b = Matrix::<f32>::random(64, 32, 62);
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        let policy = DispatchPolicy::default();
        let (cold_out, cold) =
            spmm_cached(&gpu, &cache, &a, &b, SpmmConfig::default(), &policy).unwrap();
        assert_eq!(cache.hits(), 0);
        let (warm_out, warm) =
            spmm_cached(&gpu, &cache, &a, &b, SpmmConfig::default(), &policy).unwrap();
        assert!(cache.hits() >= 1, "second dispatch must hit the cache");
        assert!(warm.clean());
        // The replayed launch recomputes real outputs and returns the
        // memoized stats bit-for-bit.
        assert_eq!(cold_out.as_slice(), warm_out.as_slice());
        assert_eq!(cold.stats, warm.stats);
        // The guards saw a real output: corrupt inputs would still fail.
        let (plain_out, plain) = spmm(&gpu, &a, &b, SpmmConfig::default(), &policy).unwrap();
        assert_eq!(plain_out.as_slice(), warm_out.as_slice());
        assert_eq!(plain.stats, warm.stats);
    }

    #[test]
    fn fallback_dedup_profile_is_bit_identical() {
        let a = gen::with_cov(100, 76, 0.8, 1.0, 63);
        let b = Matrix::<f32>::random(76, 40, 64);
        let fast = {
            let mut out = Matrix::<f32>::zeros(100, 40);
            let kernel = FallbackSpmmKernel::new(&a, &b, &mut out);
            Gpu::v100().profile(&kernel)
        };
        let brute = {
            let mut out = Matrix::<f32>::zeros(100, 40);
            let kernel = FallbackSpmmKernel::new(&a, &b, &mut out);
            Gpu::v100().with_block_dedup(false).profile(&kernel)
        };
        assert_eq!(fast, brute);
    }

    /// A sanitized SpMM launch of the requested configuration.
    fn sanitize(
        gpu: &Gpu,
        a: &CsrMatrix<f32>,
        b: &Matrix<f32>,
        cfg: SpmmConfig,
    ) -> Result<(Matrix<f32>, LaunchStats, gpu_sim::SanitizerReport), SputnikError> {
        let swizzle = RowSwizzle::new(a, cfg.row_swizzle);
        let mut out = Matrix::<f32>::zeros(a.rows(), b.cols());
        let launched = {
            let kernel = SpmmKernel::try_new(a, b, &mut out, &swizzle, cfg)?;
            gpu.run(&Launch::SANITIZE, &kernel)?
        };
        let report = launched.report.expect("a sanitized launch reports");
        Ok((out, launched.stats, report))
    }

    #[test]
    fn sanitize_passes_clean_spmm_and_still_computes() {
        let a = gen::uniform(48, 64, 0.7, 41);
        let b = Matrix::<f32>::random(64, 32, 42);
        let gpu = Gpu::v100();
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let (out, stats, report) = sanitize(&gpu, &a, &b, cfg).unwrap();
        assert_eq!(report.violation_count, 0, "{report}");
        assert!(stats.time_us > 0.0);
        let expect = reference::spmm(&a, &b);
        assert!(out.max_abs_diff(&expect) < 1e-3);
    }

    #[test]
    fn sanitize_rejects_shape_mismatch() {
        let a = gen::uniform(16, 32, 0.6, 43);
        let b = Matrix::<f32>::random(48, 16, 44); // inner dim 32 != 48
        let gpu = Gpu::v100();
        let err = sanitize(&gpu, &a, &b, SpmmConfig::default()).unwrap_err();
        assert!(matches!(err, SputnikError::ShapeMismatch { .. }));
    }
}
