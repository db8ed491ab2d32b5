//! The launcher: executes a kernel's blocks, aggregates cost traces, applies
//! the cache / scheduling / timing models, and reports simulated statistics.

use crate::cache;
use crate::cost::{BlockContext, BlockCost, BlockCostLite, Traffic, MAX_BUFFERS};
use crate::device::DeviceConfig;
use crate::fault::{DeviceFault, FaultKind, FaultPlan};
use crate::kernel::Kernel;
use crate::launch_cache::{LaunchCache, LaunchKey};
use crate::metrics;
use crate::occupancy::{self, Occupancy};
use crate::sanitizer::{self, BlockSan, CheckClass, SanitizerReport, Verdict};
use crate::scheduler;
use crate::static_check::{self, Details, StaticAudit};
use crate::timing;
use crate::trace;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Why a launch could not run (or did not complete).
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// The kernel requests more shared memory per block than the device
    /// allows for any single block.
    SmemOverBudget {
        kernel: String,
        requested: u32,
        budget: u32,
    },
    /// No block of this kernel can be resident on an SM (shared memory or
    /// register pressure exceed per-SM capacity): the launch cannot execute.
    OccupancyZero { kernel: String },
    /// An injected device fault aborted the launch.
    DeviceFault(DeviceFault),
    /// The static auditor ([`crate::static_check`]) refuted a safety
    /// property of the launch descriptor: the launch was rejected before a
    /// single block ran.
    StaticallyRefuted {
        kernel: String,
        class: CheckClass,
        detail: String,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::SmemOverBudget {
                kernel,
                requested,
                budget,
            } => write!(
                f,
                "kernel {kernel} requests {requested} B shared memory; device max is {budget}"
            ),
            LaunchError::OccupancyZero { kernel } => {
                write!(
                    f,
                    "kernel {kernel} achieves zero occupancy: no block fits on an SM"
                )
            }
            LaunchError::DeviceFault(fault) => write!(f, "device fault: {fault}"),
            LaunchError::StaticallyRefuted {
                kernel,
                class,
                detail,
            } => write!(
                f,
                "kernel {kernel} statically refuted [{}]: {detail}",
                class.name()
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<DeviceFault> for LaunchError {
    fn from(fault: DeviceFault) -> Self {
        LaunchError::DeviceFault(fault)
    }
}

/// How a launch executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Blocks compute real outputs *and* the launch is timed.
    Functional,
    /// Cost traces only, no functional output.
    Profile,
}

/// What [`Gpu::run`] checks on a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Check {
    /// Static audit: a `Refuted` verdict rejects the launch before any block
    /// runs.
    #[default]
    Audit,
    /// Static audit plus every dynamic sanitizer check (see
    /// [`crate::sanitizer`]). Refutations become report violations instead
    /// of rejecting the launch.
    Sanitize,
}

/// One launch request for [`Gpu::run`].
#[derive(Debug, Clone, Copy)]
pub struct Launch<'c> {
    pub mode: Mode,
    /// Memoize through this cache. The fingerprint must cover the operand
    /// structure plus any problem dimension the kernel name does not encode
    /// (see [`crate::launch_cache`]).
    pub cache: Option<(&'c LaunchCache, u64)>,
    pub check: Check,
}

impl<'c> Launch<'c> {
    /// An uncached, audited functional launch.
    pub const FUNCTIONAL: Launch<'static> = Launch {
        mode: Mode::Functional,
        cache: None,
        check: Check::Audit,
    };
    /// An uncached, audited profile launch.
    pub const PROFILE: Launch<'static> = Launch {
        mode: Mode::Profile,
        cache: None,
        check: Check::Audit,
    };
    /// An uncached, sanitized functional launch.
    pub const SANITIZE: Launch<'static> = Launch {
        mode: Mode::Functional,
        cache: None,
        check: Check::Sanitize,
    };

    /// This request, memoized through `cache` under `fingerprint`.
    pub fn cached(self, cache: &'c LaunchCache, fingerprint: u64) -> Self {
        Launch {
            cache: Some((cache, fingerprint)),
            ..self
        }
    }
}

/// The outcome of a [`Gpu::run`] request.
#[derive(Debug, Clone)]
pub struct Launched {
    pub stats: LaunchStats,
    /// The sanitizer report of a [`Check::Sanitize`] request.
    pub report: Option<SanitizerReport>,
    /// Whether the launch was served from the request's cache.
    pub hit: bool,
}

/// What a [`Launch`] request runs: any [`Kernel`], or a [`Deferred`] recipe
/// that builds its kernel only when the launch needs one.
pub trait Launchable {
    /// The launch identity: the kernel component of the cache key.
    fn launch_name(&self) -> String;
    /// Build the kernel and hand it to `run`.
    fn with_kernel(&self, run: &mut dyn FnMut(&dyn Kernel));
}

impl<K: Kernel> Launchable for K {
    fn launch_name(&self) -> String {
        self.name()
    }
    fn with_kernel(&self, run: &mut dyn FnMut(&dyn Kernel)) {
        run(self);
    }
}

impl Launchable for dyn Kernel + '_ {
    fn launch_name(&self) -> String {
        self.name()
    }
    fn with_kernel(&self, run: &mut dyn FnMut(&dyn Kernel)) {
        run(self);
    }
}

/// A kernel built on demand. A profile-mode cache hit is answered from the
/// name alone, so the kernel (and whatever it borrows, such as a row
/// swizzle) is never built. `name` must return the built kernel's
/// [`Kernel::name`]; it runs only when the request has a cache.
pub struct Deferred<N, F> {
    name: N,
    build: F,
}

impl<N: Fn() -> String, F: Fn(&mut dyn FnMut(&dyn Kernel))> Deferred<N, F> {
    /// `build` constructs the kernel and passes it to its argument.
    pub fn new(name: N, build: F) -> Self {
        Self { name, build }
    }
}

impl<N: Fn() -> String, F: Fn(&mut dyn FnMut(&dyn Kernel))> Launchable for Deferred<N, F> {
    fn launch_name(&self) -> String {
        (self.name)()
    }
    fn with_kernel(&self, run: &mut dyn FnMut(&dyn Kernel)) {
        (self.build)(run);
    }
}

/// The value a [`Launchable::with_kernel`] callback produced.
fn built<T>(result: Option<T>) -> T {
    result.unwrap_or_else(|| panic!("a launch target never built its kernel"))
}

/// Device-wide roofline times (cycles) per pipeline — the denominator view
/// of where a kernel's time goes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineBreakdown {
    pub fma_cycles: f64,
    pub issue_cycles: f64,
    pub lsu_cycles: f64,
    pub smem_cycles: f64,
    pub dram_cycles: f64,
    pub schedule_cycles: f64,
}

impl PipelineBreakdown {
    /// Each pipeline's share of the binding time, for reports.
    pub fn utilizations(&self, total_cycles: f64) -> [(&'static str, f64); 6] {
        let f = |c: f64| {
            if total_cycles > 0.0 {
                c / total_cycles
            } else {
                0.0
            }
        };
        [
            ("fma", f(self.fma_cycles)),
            ("issue", f(self.issue_cycles)),
            ("lsu", f(self.lsu_cycles)),
            ("smem", f(self.smem_cycles)),
            ("dram", f(self.dram_cycles)),
            ("schedule", f(self.schedule_cycles)),
        ]
    }
}

/// Simulated statistics for one kernel launch.
///
/// `PartialEq` compares every field (f64s bitwise-as-values): the fast-path
/// equivalence suite relies on exact equality between the streaming/dedup
/// launch engine and the brute-force reference path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaunchStats {
    /// Kernel name.
    pub kernel: String,
    /// Simulated wall time in microseconds (including launch overhead).
    pub time_us: f64,
    /// Makespan of the block schedule in cycles.
    pub makespan_cycles: f64,
    /// Thread blocks launched.
    pub blocks: u64,
    /// Waves of blocks (grid size / device residency).
    pub waves: f64,
    /// Schedule balance (mean SM busy / makespan); 1.0 = perfectly balanced.
    pub balance: f64,
    /// Theoretical occupancy of the kernel.
    pub occupancy: Occupancy,
    /// Total warp instructions issued.
    pub instructions: u64,
    /// Useful scalar FLOPs performed.
    pub flops: u64,
    /// DRAM bytes moved (after cache filtering).
    pub dram_bytes: u64,
    /// Achieved arithmetic throughput in TFLOP/s.
    pub tflops: f64,
    /// Fraction of the device's FP32 peak achieved.
    pub frac_peak: f64,
    /// Achieved DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Which pipeline bound the runtime ("fma", "lsu", "smem", "dram",
    /// "issue", "schedule", or "overhead").
    pub bound_by: String,
    /// Device-wide per-pipeline roofline times.
    pub pipelines: PipelineBreakdown,
}

impl LaunchStats {
    /// Convenience: simulated time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.time_us / 1000.0
    }
}

impl std::fmt::Display for LaunchStats {
    /// One-line human summary, e.g. for examples and logs:
    /// `sputnik_spmm_f32: 37.0 us, 3.15 TFLOP/s (20.1% peak), 35 MB DRAM, bound by dram`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.1} us, {:.2} TFLOP/s ({:.1}% peak), {:.1} MB DRAM, {} blocks ({:.1} waves), bound by {}",
            self.kernel,
            self.time_us,
            self.tflops,
            self.frac_peak * 100.0,
            self.dram_bytes as f64 / 1e6,
            self.blocks,
            self.waves,
            self.bound_by
        )
    }
}

/// A simulated GPU: a device configuration plus launch machinery.
pub struct Gpu {
    dev: DeviceConfig,
    /// Optional injected-fault schedule consulted on every launch.
    fault: Option<FaultPlan>,
    /// Structural block dedup (see [`Kernel::block_signature`]); on by
    /// default, disabled only to brute-force a reference for equivalence
    /// testing.
    dedup: bool,
}

impl Gpu {
    pub fn new(dev: DeviceConfig) -> Self {
        Self {
            dev,
            fault: None,
            dedup: true,
        }
    }

    pub fn v100() -> Self {
        Self::new(DeviceConfig::v100())
    }

    pub fn gtx1080() -> Self {
        Self::new(DeviceConfig::gtx1080())
    }

    pub fn a100() -> Self {
        Self::new(DeviceConfig::a100())
    }

    pub fn device(&self) -> &DeviceConfig {
        &self.dev
    }

    /// Attach a fault-injection schedule; every subsequent launch consults it.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Enable or disable structural block dedup for profile and functional
    /// launches. Dedup is on by default and bit-identical to brute force
    /// (that is the [`Kernel::block_signature`] contract); turning it off
    /// forces every block to record its own cost, which the equivalence
    /// suite uses as the reference.
    pub fn with_block_dedup(mut self, enabled: bool) -> Self {
        self.dedup = enabled;
        self
    }

    /// Launch a kernel functionally: blocks compute real outputs *and* the
    /// launch is timed. Panics on invalid, refuted or faulted launches; a
    /// [`Launch::FUNCTIONAL`] request through [`Gpu::run`] returns the error
    /// instead.
    pub fn launch(&self, kernel: &dyn Kernel) -> LaunchStats {
        self.run(&Launch::FUNCTIONAL, kernel)
            .map_or_else(|e| panic!("{e}"), |l| l.stats)
    }

    /// Profile a kernel: cost traces only, no functional output. Used by the
    /// large benchmark sweeps where only timing is needed. Panics like
    /// [`Gpu::launch`].
    pub fn profile(&self, kernel: &dyn Kernel) -> LaunchStats {
        self.run(&Launch::PROFILE, kernel)
            .map_or_else(|e| panic!("{e}"), |l| l.stats)
    }

    /// The launch funnel: every simulated launch, cached or not, sanitized
    /// or not, runs through here.
    ///
    /// 1. **Cache.** With a [`Launch::cache`] and no fault plan, the key is
    ///    the target's [`Launchable::launch_name`], the fingerprint and this
    ///    device. A hit needs no audit or sanitizer run, because the key fixes
    ///    both results. A profile hit never builds the kernel. A functional
    ///    hit validates it and replays its outputs. A GPU carrying a fault
    ///    plan bypasses the cache entirely, because fault schedules consume
    ///    per-launch indices.
    /// 2. **Audit.** On a miss, the static auditor ([`Gpu::audit`]) runs
    ///    first. Under [`Check::Audit`] a `Refuted` verdict rejects the
    ///    launch with [`LaunchError::StaticallyRefuted`] before any block
    ///    runs. Under [`Check::Sanitize`] it becomes a violation in the
    ///    report instead.
    /// 3. **Run.** Resource validation comes next, then the fault decision,
    ///    the simulation and any poison fault. A sanitized run checks the
    ///    kernel, not the device, so it never consults the fault plan.
    /// 4. **Insert.** The fresh result (and its report) is stored under the
    ///    key.
    pub fn run<L: Launchable + ?Sized>(
        &self,
        req: &Launch<'_>,
        target: &L,
    ) -> Result<Launched, LaunchError> {
        let cached = match req.cache {
            Some((cache, fingerprint)) if self.fault.is_none() => Some((
                cache,
                LaunchKey {
                    kernel: target.launch_name(),
                    fingerprint,
                    device: self.dev.name.clone(),
                    arch: self.dev.arch_fingerprint(),
                },
            )),
            _ => None,
        };
        if let Some((cache, key)) = &cached {
            let hit = match req.check {
                Check::Audit => cache.lookup(key).map(|stats| (stats, None)),
                Check::Sanitize => cache
                    .lookup_sanitized(key)
                    .map(|(stats, report)| (stats, Some(report))),
            };
            if let Some((stats, report)) = hit {
                if req.mode == Mode::Functional {
                    let mut replayed = None;
                    target.with_kernel(&mut |kernel| {
                        replayed = Some(
                            self.validate(kernel)
                                .map(|_| self.replay_functional(kernel)),
                        );
                    });
                    built(replayed)?;
                }
                metrics::global().record_launch(&stats, true);
                trace::launch(&self.dev.name, &stats, Some(true));
                if report.is_some() {
                    metrics::global().incr("sanitizer_skips", 1);
                }
                return Ok(Launched {
                    stats,
                    report,
                    hit: true,
                });
            }
        }
        let mut result = None;
        target.with_kernel(&mut |kernel| result = Some(self.simulate(req, kernel)));
        let launched = built(result)?;
        if let Some((cache, key)) = cached {
            match &launched.report {
                Some(report) => cache.insert_sanitized(key, launched.stats.clone(), report.clone()),
                None => cache.insert(key, launched.stats.clone()),
            }
        }
        Ok(launched)
    }

    /// Execute every block functionally with cost recording disabled (the
    /// output-producing half of a cached functional launch). This is the
    /// warm hot path: kernel bodies stage through the scratch arena
    /// ([`crate::arena`]) and skip cost-only work, so after each rayon
    /// worker's pools are warm a replay performs **zero heap allocations**
    /// (enforced by the `zero_alloc` integration test).
    pub fn replay_functional(&self, kernel: &dyn Kernel) {
        let grid = kernel.grid();
        (0..grid.size()).into_par_iter().for_each(|lin| {
            let mut ctx = BlockContext::replay();
            kernel.execute_block(grid.delinearize(lin), &mut ctx);
        });
    }

    /// Statically audit a kernel's launch descriptor against this device's
    /// model ([`crate::static_check::audit`]): per-check `Proven` /
    /// `Refuted` / `NeedsDynamic` verdicts, without executing a block.
    pub fn audit(&self, kernel: &dyn Kernel) -> StaticAudit {
        static_check::audit(&self.dev, kernel)
    }

    /// A cache miss: audit, then simulate (or sanitize) the launch.
    fn simulate(&self, req: &Launch<'_>, kernel: &dyn Kernel) -> Result<Launched, LaunchError> {
        let functional = req.mode == Mode::Functional;
        let findings = static_check::findings(&self.dev, kernel, Details::Refuted);
        let proven = findings
            .iter()
            .filter(|f| f.verdict == Verdict::Proven)
            .count() as u64;
        metrics::global().incr_many(&[("static_audits", 1), ("static_checks_proven", proven)]);
        let mut refuted = findings
            .into_iter()
            .filter(|f| f.verdict == Verdict::Refuted);
        if req.check == Check::Sanitize {
            let (stats, mut report) = self.sanitize(kernel, functional)?;
            for f in refuted {
                report.push_static_refutation(f.class, &f.detail);
                metrics::global().incr("sanitizer_violations", 1);
            }
            return Ok(Launched {
                stats,
                report: Some(report),
                hit: false,
            });
        }
        if let Some(finding) = refuted.next() {
            let kernel = kernel.name();
            metrics::global().incr("static_refuted", 1);
            if trace::enabled() {
                trace::instant(
                    "audit",
                    &self.dev.name,
                    &format!("statically refuted: {kernel} ({})", finding.detail),
                );
            }
            return Err(LaunchError::StaticallyRefuted {
                kernel,
                class: finding.class,
                detail: finding.detail,
            });
        }
        let occ = self.validate(kernel)?;

        // The fault decision comes *after* resource validation: an invalid
        // launch never reaches the device, so it must not consume an index
        // in the fault schedule.
        let poison = match self.fault.as_ref() {
            Some(plan) => match plan.decide(&kernel.name()) {
                Some(fault) if fault.kind == FaultKind::PoisonOutput => {
                    Some(plan.poison_seed(&fault))
                }
                Some(fault) => return Err(LaunchError::DeviceFault(fault)),
                None => None,
            },
            None => None,
        };

        let stats = self.execute(kernel, functional, occ);

        // A poison fault corrupts the output *after* a successful-looking
        // launch: callers only notice by inspecting the results.
        if functional {
            if let Some(seed) = poison {
                kernel.poison_output(seed);
            }
        }
        Ok(Launched {
            stats,
            report: None,
            hit: false,
        })
    }

    /// A sanitized run (see [`crate::sanitizer`]): every block additionally
    /// records racecheck / memcheck / aligncheck / lint findings, the
    /// simulator's analogue of `compute-sanitizer`. Sanitized launches
    /// serialize process-wide (a global shadow map backs the cross-block
    /// racecheck).
    fn sanitize(
        &self,
        kernel: &dyn Kernel,
        functional: bool,
    ) -> Result<(LaunchStats, SanitizerReport), LaunchError> {
        let occ = self.validate(kernel)?;
        let req = kernel.block_requirements();
        let buffers = kernel.buffers();
        let multi_warp = req.threads > self.dev.warp_size;
        let grid = kernel.grid();
        let n_blocks = grid.size();

        // Sanitized launches always take the slow path (no dedup): the
        // global shadow-map racecheck must observe every block's real
        // accesses. The trace reduction itself still streams — only the
        // per-block sanitizer findings are kept whole for the report.
        let session = sanitizer::begin_session(!kernel.atomic_output());
        let (total, lites, sans) = (0..n_blocks)
            .into_par_iter()
            .fold_with(
                (BlockCost::default(), Vec::new(), Vec::new()),
                |(mut total, mut lites, mut sans), lin| {
                    let idx = grid.delinearize(lin);
                    let san = BlockSan::for_kernel(&buffers, req.smem_bytes, multi_warp);
                    let mut ctx = BlockContext::sanitized(functional, san);
                    sanitizer::enter_block(lin);
                    kernel.execute_block(idx, &mut ctx);
                    sanitizer::exit_block();
                    if let Some(san) = ctx.take_sanitizer() {
                        sans.push(san);
                    }
                    total.merge(&ctx.cost);
                    lites.push(BlockCostLite::from(&ctx.cost));
                    (total, lites, sans)
                },
            )
            .reduce_with(|(mut ta, mut la, mut sa), (tb, lb, sb)| {
                ta.merge(&tb);
                la.extend(lb);
                sa.extend(sb);
                (ta, la, sa)
            })
            .unwrap_or_default();
        let (race_count, race_examples) = sanitizer::drain_session();
        drop(session);

        let mut report = SanitizerReport::new(kernel.name(), n_blocks);
        for san in sans {
            report.absorb_block(san);
        }
        report.absorb_session(race_count, race_examples);

        let stats = self.finish(kernel, occ, total, &lites, None);
        metrics::global().incr_many(&[
            ("sanitizer_runs", 1),
            ("sanitizer_violations", report.violation_count),
        ]);
        if trace::enabled() {
            trace::instant(
                "sanitizer",
                &self.dev.name,
                &format!(
                    "sanitize: {} ({} violations, {} warnings)",
                    report.kernel, report.violation_count, report.warning_count
                ),
            );
        }
        Ok((stats, report))
    }

    /// Resource validation shared by every launch path.
    fn validate(&self, kernel: &dyn Kernel) -> Result<Occupancy, LaunchError> {
        let dev = &self.dev;
        let req = kernel.block_requirements();
        let occ = occupancy::occupancy(dev, &req);
        if req.smem_bytes > dev.smem_per_block_max {
            return Err(LaunchError::SmemOverBudget {
                kernel: kernel.name(),
                requested: req.smem_bytes,
                budget: dev.smem_per_block_max,
            });
        }
        if occ.blocks_per_sm == 0 {
            return Err(LaunchError::OccupancyZero {
                kernel: kernel.name(),
            });
        }
        Ok(occ)
    }

    fn execute(&self, kernel: &dyn Kernel, functional: bool, occ: Occupancy) -> LaunchStats {
        let grid = kernel.grid();
        let n_blocks = grid.size();

        if self.dedup {
            if let Some(stats) = self.run_dedup(kernel, functional, occ) {
                return stats;
            }
        }

        // 1. Execute all blocks, streaming each cost trace into the running
        // total and a compact per-block record — no `Vec<BlockCost>` of full
        // `MAX_BUFFERS`-wide traces is ever materialized.
        let (total, lites) = (0..n_blocks)
            .into_par_iter()
            .fold_with(
                (BlockCost::default(), Vec::new()),
                |(mut total, mut lites), lin| {
                    let idx = grid.delinearize(lin);
                    let mut ctx = BlockContext::new(functional);
                    kernel.execute_block(idx, &mut ctx);
                    total.merge(&ctx.cost);
                    lites.push(BlockCostLite::from(&ctx.cost));
                    (total, lites)
                },
            )
            .reduce_with(|(mut ta, mut la), (tb, lb)| {
                ta.merge(&tb);
                la.extend(lb);
                (ta, la)
            })
            .unwrap_or_default();

        self.finish(kernel, occ, total, &lites, None)
    }

    /// Structural block dedup: group blocks by [`Kernel::block_signature`],
    /// record one representative's cost per signature class, and charge each
    /// class once per member. Profile launches execute only the
    /// representatives; functional launches still execute every block for
    /// its outputs, the non-representatives with cost recording off. Returns
    /// `None` when the kernel offers no signatures or no two blocks share one
    /// (the plain streaming path is then cheaper).
    ///
    /// Bit-identity with brute force holds because equal signatures must
    /// record bit-identical [`BlockCost`]s, totals are exact `u64` sums (a
    /// class's cost times its member count is the same arithmetic as adding
    /// it once per member), and the per-block cycles land back at their
    /// original linear indices, so the scheduler sees the same order. The
    /// functional half also relies on the standing invariant that a kernel's
    /// output cannot depend on whether cost recording is on (cached
    /// functional replays already rely on it).
    fn run_dedup(
        &self,
        kernel: &dyn Kernel,
        functional: bool,
        occ: Occupancy,
    ) -> Option<LaunchStats> {
        let grid = kernel.grid();
        let n_blocks = grid.size();
        let (unique, member) = self.dedup_plan(kernel)?;

        metrics::global().incr_many(&[
            ("dedup_blocks_total", n_blocks),
            ("dedup_blocks_executed", unique.len() as u64),
        ]);

        let costs: Vec<BlockCost> = unique
            .par_iter()
            .map(|&lin| {
                let mut ctx = BlockContext::new(functional);
                kernel.execute_block(grid.delinearize(lin), &mut ctx);
                ctx.cost
            })
            .collect();

        // Functional launches: every other block runs with recording off —
        // the kernels' `ctx.recording()` gates skip the cost-only work, and
        // staging goes through the warm scratch arena.
        if functional {
            (0..n_blocks).into_par_iter().for_each(|lin| {
                if unique[member[lin as usize] as usize] != lin {
                    let mut ctx = BlockContext::replay();
                    kernel.execute_block(grid.delinearize(lin), &mut ctx);
                }
            });
        }

        let mut counts = vec![0u64; costs.len()];
        for &slot in &member {
            counts[slot as usize] += 1;
        }
        let mut total = BlockCost::default();
        for (cost, &k) in costs.iter().zip(&counts) {
            total.merge_scaled(cost, k);
        }
        let classes: Vec<BlockCostLite> = costs.iter().map(BlockCostLite::from).collect();
        Some(self.finish(kernel, occ, total, &classes, Some(&member)))
    }

    /// Group blocks by structural signature. Returns `(unique, member)`:
    /// `unique` lists the blocks that really execute (signature-less blocks
    /// and first occurrences); `member[i]` is the slot in `unique` whose cost
    /// block `i` replays. Signatures are computed in parallel; only the
    /// grouping is serial. Returns `None` when no two blocks share a
    /// signature (the plain streaming path is cheaper).
    fn dedup_plan(&self, kernel: &dyn Kernel) -> Option<(Vec<u64>, Vec<u32>)> {
        let grid = kernel.grid();
        let n_blocks = grid.size();
        if n_blocks == 0 || n_blocks > u64::from(u32::MAX) {
            return None;
        }
        let sigs: Vec<Option<u64>> = (0..n_blocks)
            .into_par_iter()
            .map(|lin| kernel.block_signature(grid.delinearize(lin)))
            .collect();
        let mut slot_of: HashMap<u64, u32, BuildHasherDefault<SignatureHasher>> =
            HashMap::default();
        let mut unique: Vec<u64> = Vec::new();
        let mut member: Vec<u32> = Vec::with_capacity(n_blocks as usize);
        for (lin, sig) in sigs.into_iter().enumerate() {
            // At most `n_blocks <= u32::MAX` slots exist.
            let next = unique.len() as u32;
            let slot = match sig {
                Some(sig) => *slot_of.entry(sig).or_insert(next),
                None => next,
            };
            if slot == next {
                unique.push(lin as u64);
            }
            member.push(slot);
        }
        if unique.len() as u64 == n_blocks {
            return None;
        }
        Some((unique, member))
    }

    /// The pre-fast-path launch engine: collect one full [`BlockCost`] per
    /// block, then run the cache/timing models from the full traces. Kept as
    /// the ground truth the streaming and dedup paths must match bit-for-bit
    /// (the equivalence suite exercises it); never deduplicates.
    #[doc(hidden)]
    pub fn profile_reference(&self, kernel: &dyn Kernel) -> Result<LaunchStats, LaunchError> {
        let occ = self.validate(kernel)?;
        let dev = &self.dev;
        let grid = kernel.grid();
        let n_blocks = grid.size();
        let req = kernel.block_requirements();

        let costs: Vec<BlockCost> = (0..n_blocks)
            .into_par_iter()
            .map(|lin| {
                let idx = grid.delinearize(lin);
                let mut ctx = BlockContext::new(false);
                kernel.execute_block(idx, &mut ctx);
                ctx.cost
            })
            .collect();

        let mut total = BlockCost::default();
        for c in &costs {
            total.merge(c);
        }
        let buffers = kernel.buffers();
        let dram = cache::dram_traffic(dev, &buffers, &total.gmem);
        let warps_per_block = req.threads.div_ceil(dev.warp_size);
        let eff_warps = occupancy::effective_warps_per_sm(dev, &occ, n_blocks, warps_per_block);
        let active_sms = (n_blocks.min(dev.num_sms as u64)).max(1) as f64;
        let bw_per_sm = dev.dram_bytes_per_cycle() / active_sms;
        let concurrency = n_blocks
            .div_ceil(dev.num_sms as u64)
            .min(occ.blocks_per_sm as u64)
            .max(1) as f64;
        let block_cycles: Vec<f64> = costs
            .par_iter()
            .map(|c| {
                let mut bytes = 0.0f64;
                for (slot, t) in c.gmem.iter().enumerate() {
                    bytes += t.ld_bytes() as f64 * dram.ld_miss_rate[slot] + t.st_bytes() as f64;
                }
                timing::block_cycles(
                    dev,
                    c,
                    warps_per_block,
                    eff_warps,
                    bytes,
                    bw_per_sm,
                    concurrency,
                )
                .total_cycles
            })
            .collect();

        Ok(self.assemble(kernel, occ, &total, dram.total_bytes(), &block_cycles))
    }

    /// Turn the aggregated trace plus compact signature-class records into
    /// launch statistics (cache model, per-block timing, scheduling,
    /// rooflines). `member[i]` names the class of block `i`; `None` is the
    /// identity map, one class per block.
    fn finish(
        &self,
        kernel: &dyn Kernel,
        occ: Occupancy,
        total: BlockCost,
        classes: &[BlockCostLite],
        member: Option<&[u32]>,
    ) -> LaunchStats {
        let dev = &self.dev;
        let n_blocks = member.map_or(classes.len(), <[u32]>::len) as u64;
        let req = kernel.block_requirements();

        // 2. Apply the cache model to the aggregate traffic.
        let buffers = kernel.buffers();
        let dram = cache::dram_traffic(dev, &buffers, &total.gmem);
        let dram_bytes = dram.total_bytes();

        // 3. Per-class cycles. Each block's DRAM share uses the per-buffer
        // miss rates from the aggregate cache model.
        let warps_per_block = req.threads.div_ceil(dev.warp_size);
        let eff_warps = occupancy::effective_warps_per_sm(dev, &occ, n_blocks, warps_per_block);
        // Bandwidth share per SM: when fewer blocks than SMs are active, the
        // active SMs share the full device bandwidth.
        let active_sms = (n_blocks.min(dev.num_sms as u64)).max(1) as f64;
        let bw_per_sm = dev.dram_bytes_per_cycle() / active_sms;
        let concurrency = n_blocks
            .div_ceil(dev.num_sms as u64)
            .min(occ.blocks_per_sm as u64)
            .max(1) as f64;

        let class_cycles: Vec<f64> = classes
            .par_iter()
            .map(|c| {
                let mut bytes = 0.0f64;
                for (slot, t) in c.gmem.iter().enumerate() {
                    bytes += t.ld_bytes() as f64 * dram.ld_miss_rate[slot] + t.st_bytes() as f64;
                }
                timing::block_cycles_lite(
                    dev,
                    c,
                    warps_per_block,
                    eff_warps,
                    bytes,
                    bw_per_sm,
                    concurrency,
                )
                .total_cycles
            })
            .collect();
        // The scheduler takes one entry per block, in linear-index order.
        let block_cycles = match member {
            None => class_cycles,
            Some(member) => member
                .iter()
                .map(|&slot| class_cycles[slot as usize])
                .collect(),
        };

        let stats = self.assemble(kernel, occ, &total, dram_bytes, &block_cycles);
        // Every simulated launch path funnels through here (the reference
        // engine calls `assemble` directly and stays unrecorded).
        metrics::global().record_launch(&stats, false);
        trace::launch(&self.dev.name, &stats, None);
        stats
    }

    /// Shared tail of every launch path: schedule the per-block cycles onto
    /// SMs, compute device-wide rooflines, and package the statistics.
    fn assemble(
        &self,
        kernel: &dyn Kernel,
        occ: Occupancy,
        total: &BlockCost,
        dram_bytes: u64,
        block_cycles: &[f64],
    ) -> LaunchStats {
        let dev = &self.dev;
        let n_blocks = block_cycles.len() as u64;

        // 4. Schedule blocks onto SMs.
        let sched = scheduler::simulate_schedule(dev, occ.blocks_per_sm, block_cycles);

        // 5. Device-wide rooflines (lower bounds the makespan cannot beat).
        let fma_tp = dev.fp32_lanes_per_sm as f64 / dev.warp_size as f64;
        let t_fma = (total.fma_instrs + total.fp_instrs) as f64 / (fma_tp * dev.num_sms as f64);
        let t_issue =
            total.total_instrs() as f64 / (dev.issue_slots_per_sm as f64 * dev.num_sms as f64);
        let lsu_tp = (dev.lsu_lanes_per_sm as f64 / dev.warp_size as f64).max(0.125);
        let t_lsu = ((total.ld_global_instrs + total.st_global_instrs) as f64 / lsu_tp
            + (total.ld_shared_instrs + total.st_shared_instrs) as f64)
            / dev.num_sms as f64;
        let t_smem = (total.shared_bytes as f64 / dev.smem_bytes_per_cycle as f64
            + total.bank_conflict_passes as f64)
            / dev.num_sms as f64;
        let t_dram = dram_bytes as f64 / dev.dram_bytes_per_cycle();

        let cycles = sched
            .makespan_cycles
            .max(t_fma)
            .max(t_issue)
            .max(t_lsu)
            .max(t_smem)
            .max(t_dram);

        // The makespan subsumes every per-block effect, so it is almost
        // always the numeric max; report "schedule" only when it clearly
        // exceeds the binding device-wide roofline (load imbalance or
        // launch-overhead dominated), otherwise name that roofline.
        let bound_by = {
            let rooflines = [
                ("fma", t_fma),
                ("issue", t_issue),
                ("lsu", t_lsu),
                ("smem", t_smem),
                ("dram", t_dram),
            ];
            let (name, top) = rooflines
                .iter()
                .copied()
                .reduce(|a, b| if b.1 >= a.1 { b } else { a })
                .unwrap_or(("fma", t_fma));
            if sched.makespan_cycles > 1.3 * top {
                "schedule".to_string()
            } else {
                name.to_string()
            }
        };

        let pipelines = PipelineBreakdown {
            fma_cycles: t_fma,
            issue_cycles: t_issue,
            lsu_cycles: t_lsu,
            smem_cycles: t_smem,
            dram_cycles: t_dram,
            schedule_cycles: sched.makespan_cycles,
        };
        let time_us = dev.cycles_to_us(cycles) + dev.launch_overhead_us;
        let time_s = time_us * 1e-6;
        let tflops = total.flops as f64 / time_s / 1e12;
        let frac_peak = tflops / dev.fp32_peak_tflops();
        let dram_gbps = dram_bytes as f64 / time_s / 1e9;

        LaunchStats {
            kernel: kernel.name(),
            time_us,
            makespan_cycles: sched.makespan_cycles,
            blocks: n_blocks,
            waves: sched.waves,
            balance: sched.balance,
            occupancy: occ,
            instructions: total.total_instrs(),
            flops: total.flops,
            dram_bytes,
            tflops,
            frac_peak,
            dram_gbps,
            bound_by,
            pipelines,
        }
    }
}

/// Grouping hasher for [`Gpu::dedup_plan`]: signatures are already
/// FNV-mixed and `HashMap` compares whole keys, so SipHash is unnecessary —
/// hash quality affects speed here, never correctness.
#[derive(Default)]
struct SignatureHasher(u64);

impl Hasher for SignatureHasher {
    fn finish(&self) -> u64 {
        // Fold the high half down first: `HashMap` buckets on the low bits,
        // and a product's low bits see only its input's low bits.
        (self.0 ^ (self.0 >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = self.0.rotate_left(5) ^ x;
    }
}

/// A sequence of dependent kernel launches (a CUDA stream): kernels run
/// back to back, but consecutive launches overlap the host-side launch
/// overhead with the previous kernel's execution — the reason back-to-back
/// small kernels cost less than `n * (overhead + time)`.
pub struct Stream<'g> {
    gpu: &'g Gpu,
    launches: Vec<LaunchStats>,
    /// Optional launch cache consulted by [`Stream::launch_cached`].
    cache: Option<&'g LaunchCache>,
    cache_hits: u64,
}

impl<'g> Stream<'g> {
    pub fn new(gpu: &'g Gpu) -> Self {
        Self {
            gpu,
            launches: Vec::new(),
            cache: None,
            cache_hits: 0,
        }
    }

    /// A stream whose [`Stream::launch_cached`] launches are memoized in
    /// `cache`. The cache obeys the usual bypass rule: a [`Gpu`] carrying a
    /// fault plan simulates every launch in full.
    pub fn with_cache(gpu: &'g Gpu, cache: &'g LaunchCache) -> Self {
        Self {
            gpu,
            launches: Vec::new(),
            cache: Some(cache),
            cache_hits: 0,
        }
    }

    /// Launch functionally on the stream; returns this kernel's stats.
    pub fn launch(&mut self, kernel: &dyn Kernel) -> LaunchStats {
        self.push(Launch::FUNCTIONAL, kernel)
    }

    /// Launch functionally on the stream through the attached cache (see
    /// [`Launch::cache`] for what `fingerprint` must cover). On a hit the
    /// kernel still executes for its outputs but the statistics are
    /// replayed instead of re-simulated. Falls back to an uncached launch
    /// when no cache is attached.
    pub fn launch_cached(&mut self, fingerprint: u64, kernel: &dyn Kernel) -> LaunchStats {
        let req = Launch {
            cache: self.cache.map(|cache| (cache, fingerprint)),
            ..Launch::FUNCTIONAL
        };
        self.push(req, kernel)
    }

    /// Profile on the stream (cost only).
    pub fn profile(&mut self, kernel: &dyn Kernel) -> LaunchStats {
        self.push(Launch::PROFILE, kernel)
    }

    /// Run `req` through [`Gpu::run`] and append it to the stream. Panics on
    /// launch errors, like [`Gpu::launch`].
    fn push(&mut self, req: Launch<'_>, kernel: &dyn Kernel) -> LaunchStats {
        let launched = self.gpu.run(&req, kernel).unwrap_or_else(|e| panic!("{e}"));
        self.cache_hits += u64::from(launched.hit);
        self.launches.push(launched.stats.clone());
        launched.stats
    }

    pub fn launches(&self) -> &[LaunchStats] {
        &self.launches
    }

    /// Launches served from the attached cache so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Total simulated stream time: per-kernel execution plus ONE launch
    /// overhead (subsequent launches are pipelined behind execution, except
    /// when a kernel is shorter than the overhead itself).
    ///
    /// Invariant: never exceeds the naive sum of the individual launch
    /// times — pipelining can only *hide* overhead. The gap penalty for a
    /// too-short kernel applies only to launches with a successor (it models
    /// the next launch's exposed setup); the final launch has none.
    pub fn total_us(&self) -> f64 {
        if self.launches.is_empty() {
            return 0.0;
        }
        let overhead = self.gpu.device().launch_overhead_us;
        let mut total = overhead;
        for (i, s) in self.launches.iter().enumerate() {
            let exec = s.time_us - overhead;
            if i + 1 < self.launches.len() {
                // A kernel shorter than the launch overhead leaves a gap
                // the next launch cannot fully hide.
                total += exec.max(overhead * 0.3);
            } else {
                total += exec;
            }
        }
        total
    }
}

/// Aggregate of several launches (e.g. the layers of a network forward pass).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LaunchSummary {
    pub launches: u64,
    pub time_us: f64,
    pub flops: u64,
    pub dram_bytes: u64,
    /// Sanitizer violations across sanitized launches (0 unless
    /// [`LaunchSummary::add_sanitized`] was used).
    pub violations: u64,
    /// Sanitizer lint warnings across sanitized launches.
    pub warnings: u64,
    /// Launches served from a [`LaunchCache`] (0 unless
    /// [`LaunchSummary::add_cached`] was used).
    pub cache_hits: u64,
    /// Launches that missed the cache and simulated in full.
    pub cache_misses: u64,
    /// Entries the cache evicted under capacity pressure (0 unless
    /// [`LaunchSummary::absorb_cache`] was used).
    pub cache_evictions: u64,
}

impl LaunchSummary {
    pub fn add(&mut self, stats: &LaunchStats) {
        self.launches += 1;
        self.time_us += stats.time_us;
        self.flops += stats.flops;
        self.dram_bytes += stats.dram_bytes;
    }

    /// Accumulate a memoized launch (see [`Launch::cache`]), recording
    /// whether the cache served it.
    pub fn add_cached(&mut self, stats: &LaunchStats, hit: bool) {
        self.add(stats);
        if hit {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
    }

    /// Fold in a cache's eviction count (call once per sweep, after it).
    pub fn absorb_cache(&mut self, cache: &LaunchCache) {
        self.cache_evictions = cache.evictions();
    }

    /// Accumulate a sanitized launch: the stats plus its sanitizer findings.
    pub fn add_sanitized(&mut self, stats: &LaunchStats, report: &SanitizerReport) {
        self.add(stats);
        self.violations += report.violation_count;
        self.warnings += report.warning_count;
    }

    pub fn tflops(&self) -> f64 {
        if self.time_us <= 0.0 {
            return 0.0;
        }
        self.flops as f64 / (self.time_us * 1e-6) / 1e12
    }
}

#[allow(unused)]
fn assert_traffic_slots(_: [Traffic; MAX_BUFFERS]) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{AccessPattern, BufferSpec};
    use crate::cost::BufferId;
    use crate::dim::Dim3;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A trivial kernel for launcher-level tests.
    struct Noop {
        blocks: u32,
        cycles_of_fma: u64,
    }

    impl Kernel for Noop {
        fn name(&self) -> String {
            "noop".into()
        }
        fn grid(&self) -> Dim3 {
            Dim3::x(self.blocks)
        }
        fn block_dim(&self) -> Dim3 {
            Dim3::x(128)
        }
        fn buffers(&self) -> Vec<BufferSpec> {
            vec![BufferSpec {
                id: BufferId(0),
                name: "x",
                footprint_bytes: 1024,
                pattern: AccessPattern::Streaming,
            }]
        }
        fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
            ctx.fma(self.cycles_of_fma, 32 * self.cycles_of_fma);
            ctx.ld_global(BufferId(0), 0, 32, 1, 4);
        }
    }

    /// Block cost depends on `x % 3` for even blocks, which sign it; odd
    /// blocks are signature-less and each stalls a different amount, so
    /// grouping any two of them would change the launch statistics.
    struct MixedSignatures {
        blocks: u32,
        functional_runs: AtomicU64,
    }

    impl Kernel for MixedSignatures {
        fn name(&self) -> String {
            "mixed_signatures".into()
        }
        fn grid(&self) -> Dim3 {
            Dim3::x(self.blocks)
        }
        fn block_dim(&self) -> Dim3 {
            Dim3::x(128)
        }
        fn buffers(&self) -> Vec<BufferSpec> {
            vec![BufferSpec {
                id: BufferId(0),
                name: "x",
                footprint_bytes: 1 << 20,
                pattern: AccessPattern::Streaming,
            }]
        }
        fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
            if ctx.functional() {
                self.functional_runs.fetch_add(1, Ordering::Relaxed);
            }
            let x = u64::from(block.x);
            ctx.fma(100 + 50 * (x % 3), 3200);
            ctx.ld_global(BufferId(0), x * 128, 32, 1, 4);
            if x % 2 == 1 {
                ctx.cost.stall_cycles += x;
            }
        }
        fn block_signature(&self, block: Dim3) -> Option<u64> {
            block.x.is_multiple_of(2).then_some(u64::from(block.x % 3))
        }
    }

    #[test]
    fn class_compressed_tail_matches_reference_with_unsigned_blocks() {
        let blocks = 301;
        let k = MixedSignatures {
            blocks,
            functional_runs: Default::default(),
        };
        let gpu = Gpu::v100();

        let (unique, member) = gpu.dedup_plan(&k).expect("even blocks share signatures");
        let odd_slots: std::collections::HashSet<u32> =
            member.iter().skip(1).step_by(2).copied().collect();
        assert_eq!(
            odd_slots.len(),
            blocks as usize / 2,
            "each None block is its own class"
        );
        assert_eq!(unique.len(), 3 + blocks as usize / 2);

        let reference = gpu.profile_reference(&k).expect("reference");
        assert_eq!(gpu.profile(&k), reference, "profile dedup diverged");

        let brute = Gpu::v100().with_block_dedup(false).launch(&k);
        k.functional_runs.store(0, Ordering::Relaxed);
        let dedup = gpu.launch(&k);
        assert_eq!(dedup, brute, "functional dedup diverged");
        assert_eq!(dedup, reference, "functional dedup diverged from reference");
        assert_eq!(
            k.functional_runs.load(Ordering::Relaxed),
            u64::from(blocks),
            "functional dedup still executes every block once"
        );
    }

    #[test]
    fn signature_hasher_folds_bytes() {
        let hash = |bytes: &[u8]| {
            let mut h = SignatureHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ba"));
        assert_ne!(hash(b"a"), hash(b""));
        assert_eq!(hash(b"abc"), hash(b"abc"));
    }

    #[test]
    fn breakdown_is_populated_and_consistent() {
        let gpu = Gpu::v100();
        let stats = gpu.profile(&Noop {
            blocks: 800,
            cycles_of_fma: 10_000,
        });
        let p = stats.pipelines;
        assert!(p.fma_cycles > 0.0);
        assert!(
            p.schedule_cycles >= p.fma_cycles * 0.99,
            "makespan bounds the rooflines"
        );
        let binding = p
            .utilizations(stats.makespan_cycles.max(1.0))
            .iter()
            .map(|&(_, u)| u)
            .fold(0.0f64, f64::max);
        assert!(
            binding > 0.9,
            "some pipeline must be near-binding, got {binding}"
        );
    }

    #[test]
    fn stream_overlaps_launch_overhead() {
        let gpu = Gpu::v100();
        let k = Noop {
            blocks: 800,
            cycles_of_fma: 50_000,
        };
        let solo = gpu.profile(&k).time_us;
        let mut stream = Stream::new(&gpu);
        for _ in 0..4 {
            stream.profile(&k);
        }
        let total = stream.total_us();
        assert!(
            total < 4.0 * solo,
            "stream {} must beat 4x solo {}",
            total,
            4.0 * solo
        );
        assert!(total > 4.0 * (solo - gpu.device().launch_overhead_us));
        assert_eq!(stream.launches().len(), 4);
    }

    #[test]
    fn empty_stream_costs_nothing() {
        let gpu = Gpu::v100();
        assert_eq!(Stream::new(&gpu).total_us(), 0.0);
    }

    /// Regression: the short-kernel gap penalty used to apply to the *last*
    /// launch too, making a single-launch stream "slower" than the same
    /// launch alone — which is how `BatchedResult::overhead_saved_us` went
    /// negative. A stream of one is exactly the solo launch.
    #[test]
    fn single_launch_stream_equals_solo_launch() {
        let gpu = Gpu::v100();
        // Tiny kernel: execution far below the launch overhead, the case
        // that used to trip the gap penalty.
        let k = Noop {
            blocks: 1,
            cycles_of_fma: 1,
        };
        let solo = gpu.profile(&k).time_us;
        let mut stream = Stream::new(&gpu);
        stream.profile(&k);
        assert!(
            (stream.total_us() - solo).abs() < 1e-12,
            "stream of one ({}) must equal solo launch ({solo})",
            stream.total_us()
        );
    }

    /// Pipelining can only hide overhead: a stream is never slower than
    /// launching its kernels back to back, for any kernel size.
    #[test]
    fn stream_never_exceeds_naive_sum() {
        let gpu = Gpu::v100();
        for cycles in [1, 2_000, 50_000] {
            let k = Noop {
                blocks: 4,
                cycles_of_fma: cycles,
            };
            for n in 1..5 {
                let mut stream = Stream::new(&gpu);
                let mut naive = 0.0;
                for _ in 0..n {
                    naive += stream.profile(&k).time_us;
                }
                assert!(
                    stream.total_us() <= naive + 1e-9,
                    "stream {} > naive {naive} for {n} x {cycles}-cycle kernels",
                    stream.total_us()
                );
            }
        }
    }

    #[test]
    fn stream_cache_replays_identical_launches() {
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        let mut stream = Stream::with_cache(&gpu, &cache);
        let k = Noop {
            blocks: 8,
            cycles_of_fma: 100,
        };
        let a = stream.launch_cached(42, &k);
        let b = stream.launch_cached(42, &k);
        assert_eq!(a, b, "replayed stats are bit-identical");
        assert_eq!(stream.cache_hits(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(stream.launches().len(), 2);
    }

    #[test]
    fn stream_cache_bypassed_under_fault_plan() {
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::none());
        let cache = LaunchCache::new();
        let mut stream = Stream::with_cache(&gpu, &cache);
        let k = Noop {
            blocks: 8,
            cycles_of_fma: 100,
        };
        stream.launch_cached(42, &k);
        stream.launch_cached(42, &k);
        assert_eq!(stream.cache_hits(), 0, "fault-plan GPUs simulate in full");
        assert!(cache.is_empty(), "no inserts while a fault plan is armed");
    }

    #[test]
    fn deferred_profile_hits_never_build_the_kernel() {
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        let builds = AtomicU64::new(0);
        let target = Deferred::new(
            || "noop".to_string(),
            |run| {
                builds.fetch_add(1, Ordering::Relaxed);
                run(&Noop {
                    blocks: 8,
                    cycles_of_fma: 100,
                });
            },
        );
        let req = Launch::PROFILE.cached(&cache, 7);
        let cold = gpu.run(&req, &target).expect("cold launch");
        let warm = gpu.run(&req, &target).expect("warm launch");
        assert!(!cold.hit && warm.hit);
        assert_eq!(cold.stats, warm.stats);
        assert_eq!(builds.load(Ordering::Relaxed), 1, "a profile hit built it");

        // A functional hit must build the kernel to replay its outputs.
        let functional = gpu
            .run(&Launch::FUNCTIONAL.cached(&cache, 7), &target)
            .expect("functional launch");
        assert!(functional.hit);
        assert_eq!(builds.load(Ordering::Relaxed), 2);
    }
}
