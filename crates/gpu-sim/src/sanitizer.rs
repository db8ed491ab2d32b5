//! Kernel sanitizer: the simulator's analogue of CUDA `compute-sanitizer`.
//!
//! Kernels in this repo execute against two unchecked contracts: thread
//! blocks write a shared output buffer through [`SyncUnsafeSlice`] on a
//! disjoint-tiling promise, and the cost recorder ([`BlockContext`]) trusts
//! that traced addresses are in-bounds and that vector accesses respect the
//! alignment legality that ROMA (§III-B of Gale et al., SC 2020) exists to
//! guarantee. A sanitized launch (a [`Gpu::run`] request with
//! [`Check::Sanitize`]) turns violations of
//! those contracts into typed, testable diagnostics instead of silent UB or
//! silent mismodeling:
//!
//! * **racecheck** — two different thread blocks writing the same output
//!   index (via a per-index writer-ID shadow map under the instrumented
//!   [`SyncUnsafeSlice`]), plus intra-block shared-memory read-after-write
//!   hazards across `bar_sync` epochs (a block-scope staging store followed
//!   by a block-scope load with no intervening barrier, in a multi-warp
//!   block).
//! * **memcheck** — global accesses beyond the declared
//!   [`BufferSpec::footprint_bytes`], slice accesses beyond the output
//!   length, and per-epoch shared staging that exceeds the declared shared
//!   memory.
//! * **aligncheck** — vector accesses (`vec_width > 1`) whose byte address
//!   is not naturally aligned to `vec_width * elem_bytes`.
//! * **lints** — warnings (not failures) for fully-uncoalesced global loads
//!   and ≥8-way shared-memory bank conflicts.
//!
//! [`SyncUnsafeSlice`]: crate::util::SyncUnsafeSlice
//! [`BlockContext`]: crate::cost::BlockContext
//! [`BufferSpec::footprint_bytes`]: crate::cache::BufferSpec
//! [`Gpu::run`]: crate::launch::Gpu::run
//! [`Check::Sanitize`]: crate::launch::Check::Sanitize

use crate::cache::BufferSpec;
use crate::cost::MAX_BUFFERS;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Three-valued verdict of one static check class (see
/// [`crate::static_check`]). The lattice is ordered by severity:
/// `Proven < NeedsDynamic < Refuted`.
///
/// * `Proven` — the property holds for every block of the launch, shown from
///   the launch descriptor alone; the matching dynamic check is redundant.
/// * `Refuted` — the descriptor already contains a counterexample; executing
///   the launch would only rediscover it.
/// * `NeedsDynamic` — the property depends on runtime data (gathered
///   indices, barrier interleavings); fall back to the dynamic sanitizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Verdict {
    Proven,
    NeedsDynamic,
    Refuted,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Proven => "proven",
            Verdict::NeedsDynamic => "needs_dynamic",
            Verdict::Refuted => "refuted",
        }
    }
}

/// The check classes the static auditor can rule on. Each maps onto the
/// dynamic check the sanitizer would otherwise run for every block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckClass {
    /// Traced global accesses vs declared buffer footprints (memcheck).
    Bounds,
    /// Vector-access natural alignment (aligncheck).
    Alignment,
    /// Per-epoch block-scope staging vs declared shared memory, and the
    /// declared shared memory vs the device's per-block capacity.
    SharedCapacity,
    /// Grid/block dimension legality and nonzero occupancy.
    GridOccupancy,
    /// Block-scope store→load phases separated by `bar_sync`.
    BarrierStructure,
}

impl CheckClass {
    pub const ALL: [CheckClass; 5] = [
        CheckClass::Bounds,
        CheckClass::Alignment,
        CheckClass::SharedCapacity,
        CheckClass::GridOccupancy,
        CheckClass::BarrierStructure,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CheckClass::Bounds => "bounds",
            CheckClass::Alignment => "alignment",
            CheckClass::SharedCapacity => "shared_capacity",
            CheckClass::GridOccupancy => "grid_occupancy",
            CheckClass::BarrierStructure => "barrier_structure",
        }
    }
}

/// Scope of a shared-memory access for the barrier-epoch hazard check.
///
/// `Warp` marks warp-synchronous staging (e.g. Sputnik's sparse-operand
/// loads, where the warp that stores is the only consumer — legal without a
/// barrier). `Block` marks staging consumed by other warps of the block,
/// which requires a `bar_sync` between the store and the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SmemScope {
    /// Producer and consumer are the same warp; no barrier required.
    Warp,
    /// Data crosses warps within the block; a barrier is required between
    /// the store phase and the load phase.
    Block,
}

/// A hard sanitizer finding: the kernel (or its cost model) broke a contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SanitizerViolation {
    /// Two different thread blocks wrote the same output-slice index.
    CrossBlockRace {
        index: usize,
        first_writer: u64,
        second_writer: u64,
    },
    /// An output-slice write beyond the slice length.
    OutOfBoundsWrite { index: usize, len: usize },
    /// An output-slice read beyond the slice length.
    OutOfBoundsRead { index: usize, len: usize },
    /// A traced global access beyond the buffer's declared footprint.
    GlobalOutOfBounds {
        buffer: &'static str,
        byte_addr: u64,
        bytes: u64,
        footprint: u64,
    },
    /// A traced global access against a buffer slot the kernel never
    /// declared in [`Kernel::buffers`](crate::kernel::Kernel::buffers).
    UndeclaredBuffer { slot: u8 },
    /// Block-scope shared-memory stores within one barrier epoch exceeded
    /// the kernel's declared shared memory.
    SharedStageOverflow { stored_bytes: u64, smem_bytes: u64 },
    /// A vector access whose byte address is not aligned to the vector size.
    Misaligned {
        buffer: &'static str,
        byte_addr: u64,
        vec_width: u32,
        elem_bytes: u32,
    },
    /// A block-scope shared-memory load observed stores from the same
    /// barrier epoch: the kernel omitted a `bar_sync` between the store
    /// phase and the load phase of a multi-warp block.
    MissingBarrier { epoch: u64 },
    /// The static auditor refuted a check class from the launch descriptor
    /// alone (see [`crate::static_check`]): the violation is certain without
    /// executing a single block.
    StaticallyRefuted { class: String, detail: String },
}

impl std::fmt::Display for SanitizerViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SanitizerViolation::CrossBlockRace { index, first_writer, second_writer } => write!(
                f,
                "cross-block race: blocks {first_writer} and {second_writer} both wrote index {index}"
            ),
            SanitizerViolation::OutOfBoundsWrite { index, len } => {
                write!(f, "out-of-bounds write: index {index} >= len {len}")
            }
            SanitizerViolation::OutOfBoundsRead { index, len } => {
                write!(f, "out-of-bounds read: index {index} >= len {len}")
            }
            SanitizerViolation::GlobalOutOfBounds { buffer, byte_addr, bytes, footprint } => write!(
                f,
                "global OOB on `{buffer}`: [{byte_addr}, {}) exceeds footprint {footprint}",
                byte_addr + bytes
            ),
            SanitizerViolation::UndeclaredBuffer { slot } => {
                write!(f, "traced access to undeclared buffer slot {slot}")
            }
            SanitizerViolation::SharedStageOverflow { stored_bytes, smem_bytes } => write!(
                f,
                "shared staging overflow: {stored_bytes} B stored in one epoch, {smem_bytes} B declared"
            ),
            SanitizerViolation::Misaligned { buffer, byte_addr, vec_width, elem_bytes } => write!(
                f,
                "misaligned vec{vec_width} access on `{buffer}`: address {byte_addr} not aligned to {}",
                vec_width * elem_bytes
            ),
            SanitizerViolation::MissingBarrier { epoch } => write!(
                f,
                "missing barrier: block-scope smem load after store in epoch {epoch} with no bar_sync"
            ),
            SanitizerViolation::StaticallyRefuted { class, detail } => {
                write!(f, "statically refuted [{class}]: {detail}")
            }
        }
    }
}

/// A soft sanitizer finding: legal, but a performance smell worth knowing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SanitizerWarning {
    /// A gather or long-stride load whose lanes each touched their own
    /// sector — zero intra-warp coalescing.
    UncoalescedLoad {
        buffer: &'static str,
        lanes: u32,
        sectors: u64,
    },
    /// A shared-memory access with `ways`-way bank conflicts (>= 8).
    BankConflict { ways: u32 },
}

impl std::fmt::Display for SanitizerWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SanitizerWarning::UncoalescedLoad {
                buffer,
                lanes,
                sectors,
            } => {
                write!(
                    f,
                    "uncoalesced load on `{buffer}`: {lanes} lanes touched {sectors} sectors"
                )
            }
            SanitizerWarning::BankConflict { ways } => {
                write!(f, "{ways}-way shared-memory bank conflict")
            }
        }
    }
}

/// Cap on the example violations/warnings kept per report (total counts are
/// always exact).
pub const MAX_REPORTED: usize = 64;
/// Cap on examples kept per block before merging into the report.
const MAX_PER_BLOCK: usize = 16;

/// The outcome of one sanitized launch.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SanitizerReport {
    /// Kernel name.
    pub kernel: String,
    /// Thread blocks executed.
    pub blocks: u64,
    /// Total hard violations (exact, even when examples are capped).
    pub violation_count: u64,
    /// Total lint warnings (exact).
    pub warning_count: u64,
    /// Example violations, capped at [`MAX_REPORTED`].
    pub violations: Vec<SanitizerViolation>,
    /// Example warnings, capped at [`MAX_REPORTED`].
    pub warnings: Vec<SanitizerWarning>,
}

impl SanitizerReport {
    pub fn new(kernel: String, blocks: u64) -> Self {
        Self {
            kernel,
            blocks,
            ..Self::default()
        }
    }

    /// No hard violations (warnings do not make a launch dirty).
    pub fn clean(&self) -> bool {
        self.violation_count == 0
    }

    fn push_violation(&mut self, v: SanitizerViolation) {
        self.violation_count += 1;
        if self.violations.len() < MAX_REPORTED {
            self.violations.push(v);
        }
    }

    /// Fold a static refutation (from [`crate::static_check`]) into the
    /// report as a hard violation: a statically refuted launch is dirty even
    /// if the dynamic checks happened to miss the counterexample block.
    pub fn push_static_refutation(&mut self, class: CheckClass, detail: &str) {
        self.push_violation(SanitizerViolation::StaticallyRefuted {
            class: class.name().to_string(),
            detail: detail.to_string(),
        });
    }

    fn push_warning(&mut self, w: SanitizerWarning) {
        self.warning_count += 1;
        if self.warnings.len() < MAX_REPORTED {
            self.warnings.push(w);
        }
    }

    /// Fold one block's findings into the launch report.
    pub(crate) fn absorb_block(&mut self, san: BlockSan) {
        let extra_v = san
            .violation_count
            .saturating_sub(san.violations.len() as u64);
        let extra_w = san.warning_count.saturating_sub(san.warnings.len() as u64);
        for v in san.violations {
            self.push_violation(v);
        }
        for w in san.warnings {
            self.push_warning(w);
        }
        self.violation_count += extra_v;
        self.warning_count += extra_w;
    }

    /// Fold the session-global (cross-block) findings into the report.
    pub(crate) fn absorb_session(&mut self, count: u64, examples: Vec<SanitizerViolation>) {
        let extra = count.saturating_sub(examples.len() as u64);
        for v in examples {
            self.push_violation(v);
        }
        self.violation_count += extra;
    }
}

impl std::fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} blocks, {} violation(s), {} warning(s)",
            self.kernel, self.blocks, self.violation_count, self.warning_count
        )?;
        for v in &self.violations {
            write!(f, "\n  VIOLATION {v}")?;
        }
        for w in &self.warnings {
            write!(f, "\n  warning   {w}")?;
        }
        Ok(())
    }
}

/// Per-block sanitizer state, carried inside a sanitized [`BlockContext`]
/// (one per block, no cross-thread sharing — the cross-block shadow map is
/// the only global state).
///
/// [`BlockContext`]: crate::cost::BlockContext
#[derive(Debug)]
pub struct BlockSan {
    /// Declared footprint per buffer slot (name, bytes).
    footprints: [Option<(&'static str, u64)>; MAX_BUFFERS],
    /// Declared shared memory per block.
    smem_bytes: u32,
    /// Whether the block runs more than one warp (barrier/capacity hazards
    /// only exist across warps; single-warp blocks are warp-synchronous).
    multi_warp: bool,
    /// Barrier epoch counter (incremented by `bar_sync`).
    epoch: u64,
    /// A block-scope smem store happened in the current epoch.
    store_in_epoch: bool,
    /// Block-scope bytes staged in the current epoch.
    epoch_store_bytes: u64,
    /// Dedup flags: report each hazard class at most once per epoch.
    barrier_reported: bool,
    overflow_reported: bool,
    violation_count: u64,
    warning_count: u64,
    violations: Vec<SanitizerViolation>,
    warnings: Vec<SanitizerWarning>,
}

impl BlockSan {
    pub fn for_kernel(buffers: &[BufferSpec], smem_bytes: u32, multi_warp: bool) -> Self {
        let mut footprints: [Option<(&'static str, u64)>; MAX_BUFFERS] = [None; MAX_BUFFERS];
        for b in buffers {
            let slot = b.id.0 as usize;
            if slot < MAX_BUFFERS {
                footprints[slot] = Some((b.name, b.footprint_bytes));
            }
        }
        Self {
            footprints,
            smem_bytes,
            multi_warp,
            epoch: 0,
            store_in_epoch: false,
            epoch_store_bytes: 0,
            barrier_reported: false,
            overflow_reported: false,
            violation_count: 0,
            warning_count: 0,
            violations: Vec::new(),
            warnings: Vec::new(),
        }
    }

    fn record(&mut self, v: SanitizerViolation) {
        self.violation_count += 1;
        if self.violations.len() < MAX_PER_BLOCK {
            self.violations.push(v);
        }
    }

    fn warn(&mut self, w: SanitizerWarning) {
        self.warning_count += 1;
        if self.warnings.len() < MAX_PER_BLOCK {
            self.warnings.push(w);
        }
    }

    /// Memcheck: a traced global access of `bytes` at `byte_addr` against
    /// the declared footprint of buffer `slot`.
    pub(crate) fn check_global(&mut self, slot: usize, byte_addr: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        match self.footprints.get(slot).copied().flatten() {
            None => self.record(SanitizerViolation::UndeclaredBuffer { slot: slot as u8 }),
            Some((name, footprint)) => {
                if byte_addr.saturating_add(bytes) > footprint {
                    self.record(SanitizerViolation::GlobalOutOfBounds {
                        buffer: name,
                        byte_addr,
                        bytes,
                        footprint,
                    });
                }
            }
        }
    }

    /// Aligncheck: vector accesses must be naturally aligned.
    pub(crate) fn check_align(
        &mut self,
        slot: usize,
        byte_addr: u64,
        vec_width: u32,
        elem_bytes: u32,
    ) {
        if vec_width <= 1 {
            return;
        }
        let align = vec_width as u64 * elem_bytes as u64;
        if align > 0 && !byte_addr.is_multiple_of(align) {
            let name = self
                .footprints
                .get(slot)
                .copied()
                .flatten()
                .map_or("<undeclared>", |(n, _)| n);
            self.record(SanitizerViolation::Misaligned {
                buffer: name,
                byte_addr,
                vec_width,
                elem_bytes,
            });
        }
    }

    /// Barrier-epoch tracking: a shared-memory store of `bytes`.
    pub(crate) fn note_smem_store(&mut self, bytes: u64, scope: SmemScope) {
        if scope != SmemScope::Block || !self.multi_warp {
            return;
        }
        self.store_in_epoch = true;
        self.epoch_store_bytes += bytes;
        if !self.overflow_reported
            && self.smem_bytes > 0
            && self.epoch_store_bytes > self.smem_bytes as u64
        {
            self.overflow_reported = true;
            self.record(SanitizerViolation::SharedStageOverflow {
                stored_bytes: self.epoch_store_bytes,
                smem_bytes: self.smem_bytes as u64,
            });
        }
    }

    /// Barrier-epoch tracking: a shared-memory load. A block-scope load in
    /// an epoch that already staged block-scope data is a read-after-write
    /// hazard: the consumer warps never synchronized with the producers.
    pub(crate) fn note_smem_load(&mut self, scope: SmemScope) {
        if scope == SmemScope::Block
            && self.multi_warp
            && self.store_in_epoch
            && !self.barrier_reported
        {
            self.barrier_reported = true;
            self.record(SanitizerViolation::MissingBarrier { epoch: self.epoch });
        }
    }

    /// Lint: an N-way bank conflict (>= 8 ways is pathological).
    pub(crate) fn note_bank_conflict(&mut self, ways: u32) {
        if ways >= 8 {
            self.warn(SanitizerWarning::BankConflict { ways });
        }
    }

    /// Lint: a warp-wide load where every lane paid its own sector.
    pub(crate) fn note_uncoalesced(&mut self, slot: usize, lanes: u32, sectors: u64) {
        if lanes >= 16 && sectors >= lanes as u64 {
            let name = self
                .footprints
                .get(slot)
                .copied()
                .flatten()
                .map_or("<undeclared>", |(n, _)| n);
            self.warn(SanitizerWarning::UncoalescedLoad {
                buffer: name,
                lanes,
                sectors,
            });
        }
    }

    /// A `bar_sync`: advance the epoch, clearing the hazard state.
    pub(crate) fn note_barrier(&mut self) {
        self.epoch += 1;
        self.store_in_epoch = false;
        self.epoch_store_bytes = 0;
        self.barrier_reported = false;
        self.overflow_reported = false;
    }
}

// ---------------------------------------------------------------------------
// Session state: the cross-block shadow map behind the instrumented
// SyncUnsafeSlice. One sanitized launch at a time holds the session lock, so
// concurrent test threads serialize instead of cross-contaminating shadow
// maps. Block executors (rayon workers) tag themselves with a thread-local
// block id around `execute_block`.
// ---------------------------------------------------------------------------

/// Sentinel: the current thread is not executing a sanitized block (host
/// code, e.g. test setup writing initial values).
const NO_BLOCK: u64 = u64::MAX;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static RACECHECK: AtomicBool = AtomicBool::new(true);
static SESSION: Mutex<()> = Mutex::new(());
static SHADOW: Mutex<Option<ShadowState>> = Mutex::new(None);

thread_local! {
    static CURRENT_BLOCK: Cell<u64> = const { Cell::new(NO_BLOCK) };
}

#[derive(Default)]
struct ShadowState {
    /// (slice base pointer, index) -> first writer's linear block id.
    writers: HashMap<(usize, usize), u64>,
    violation_count: u64,
    violations: Vec<SanitizerViolation>,
}

impl ShadowState {
    fn record(&mut self, v: SanitizerViolation) {
        self.violation_count += 1;
        if self.violations.len() < MAX_REPORTED {
            self.violations.push(v);
        }
    }
}

fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
    // A panic inside a sanitized kernel poisons these mutexes; the data is
    // plain bookkeeping, so recover rather than cascade.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Holds the session lock for the duration of one sanitized launch.
pub(crate) struct SessionGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        *lock(&SHADOW) = None;
    }
}

/// Begin a sanitized launch: acquires the global session (serializing
/// sanitized launches across threads) and arms the shadow map.
/// `racecheck` disables the cross-block write check for kernels that
/// legitimately overlap (atomic accumulation).
pub(crate) fn begin_session(racecheck: bool) -> SessionGuard {
    let guard = lock(&SESSION);
    *lock(&SHADOW) = Some(ShadowState::default());
    RACECHECK.store(racecheck, Ordering::SeqCst);
    ACTIVE.store(true, Ordering::SeqCst);
    SessionGuard { _lock: guard }
}

/// Drain the session's cross-block findings (called before the guard drops).
pub(crate) fn drain_session() -> (u64, Vec<SanitizerViolation>) {
    match lock(&SHADOW).take() {
        Some(state) => (state.violation_count, state.violations),
        None => (0, Vec::new()),
    }
}

/// Whether a sanitized launch is currently in progress (fast path for the
/// instrumented slice).
#[inline]
pub(crate) fn session_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Tag the current thread as executing block `id` of the sanitized launch.
pub(crate) fn enter_block(id: u64) {
    CURRENT_BLOCK.with(|c| c.set(id));
}

/// Untag the current thread.
pub(crate) fn exit_block() {
    CURRENT_BLOCK.with(|c| c.set(NO_BLOCK));
}

/// Racecheck: claim `(base, index)` for the current block. Returns `false`
/// when another block already owns the index — the caller must then SKIP the
/// raw write, because performing it would be the very data race being
/// reported.
pub(crate) fn claim_write(base: usize, index: usize) -> bool {
    if !ACTIVE.load(Ordering::Relaxed) || !RACECHECK.load(Ordering::Relaxed) {
        return true;
    }
    let me = CURRENT_BLOCK.with(|c| c.get());
    if me == NO_BLOCK {
        // Host-side write (setup/teardown), not part of the kernel.
        return true;
    }
    let mut shadow = lock(&SHADOW);
    let Some(state) = shadow.as_mut() else {
        return true;
    };
    match state.writers.get(&(base, index)).copied() {
        None => {
            state.writers.insert((base, index), me);
            true
        }
        Some(first) if first == me => true,
        Some(first) => {
            state.record(SanitizerViolation::CrossBlockRace {
                index,
                first_writer: first,
                second_writer: me,
            });
            false
        }
    }
}

/// Memcheck: record a slice access beyond its length. Returns `true` when a
/// sanitized launch absorbed the violation (the caller skips the access);
/// `false` means no session is active and the caller should panic.
pub(crate) fn report_slice_oob(index: usize, len: usize, is_write: bool) -> bool {
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    let mut shadow = lock(&SHADOW);
    let Some(state) = shadow.as_mut() else {
        return false;
    };
    state.record(if is_write {
        SanitizerViolation::OutOfBoundsWrite { index, len }
    } else {
        SanitizerViolation::OutOfBoundsRead { index, len }
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AccessPattern;
    use crate::cost::BufferId;

    fn spec(slot: u8, name: &'static str, footprint: u64) -> BufferSpec {
        BufferSpec {
            id: BufferId(slot),
            name,
            footprint_bytes: footprint,
            pattern: AccessPattern::Streaming,
        }
    }

    #[test]
    fn memcheck_flags_footprint_overrun() {
        let mut san = BlockSan::for_kernel(&[spec(0, "x", 128)], 0, true);
        san.check_global(0, 0, 128); // exactly the footprint: fine
        assert_eq!(san.violation_count, 0);
        san.check_global(0, 64, 96); // 160 > 128
        assert_eq!(san.violation_count, 1);
        assert!(matches!(
            san.violations[0],
            SanitizerViolation::GlobalOutOfBounds { footprint: 128, .. }
        ));
    }

    #[test]
    fn memcheck_flags_undeclared_slot() {
        let mut san = BlockSan::for_kernel(&[spec(0, "x", 128)], 0, true);
        san.check_global(3, 0, 4);
        assert!(matches!(
            san.violations[0],
            SanitizerViolation::UndeclaredBuffer { slot: 3 }
        ));
    }

    #[test]
    fn aligncheck_only_fires_on_vectors() {
        let mut san = BlockSan::for_kernel(&[spec(0, "x", 1024)], 0, true);
        san.check_align(0, 20, 1, 4); // scalar: any address is legal
        assert_eq!(san.violation_count, 0);
        san.check_align(0, 16, 4, 4); // vec4 f32 at 16: aligned
        assert_eq!(san.violation_count, 0);
        san.check_align(0, 20, 4, 4); // vec4 f32 at 20: misaligned
        assert!(matches!(
            san.violations[0],
            SanitizerViolation::Misaligned {
                byte_addr: 20,
                vec_width: 4,
                elem_bytes: 4,
                ..
            }
        ));
    }

    #[test]
    fn barrier_epochs_catch_store_load_hazard() {
        let mut san = BlockSan::for_kernel(&[], 4096, true);
        san.note_smem_store(128, SmemScope::Block);
        san.note_barrier();
        san.note_smem_load(SmemScope::Block); // synced: fine
        assert_eq!(san.violation_count, 0);
        san.note_smem_store(128, SmemScope::Block);
        san.note_smem_load(SmemScope::Block); // same epoch: hazard
        assert!(matches!(
            san.violations[0],
            SanitizerViolation::MissingBarrier { epoch: 1 }
        ));
        // Deduped within the epoch.
        san.note_smem_load(SmemScope::Block);
        assert_eq!(san.violation_count, 1);
    }

    #[test]
    fn warp_scope_and_single_warp_blocks_are_exempt() {
        let mut warp = BlockSan::for_kernel(&[], 4096, true);
        warp.note_smem_store(128, SmemScope::Warp);
        warp.note_smem_load(SmemScope::Warp);
        assert_eq!(warp.violation_count, 0);

        let mut single = BlockSan::for_kernel(&[], 4096, false);
        single.note_smem_store(128, SmemScope::Block);
        single.note_smem_load(SmemScope::Block);
        assert_eq!(single.violation_count, 0);
    }

    #[test]
    fn stage_overflow_is_per_epoch() {
        let mut san = BlockSan::for_kernel(&[], 256, true);
        san.note_smem_store(200, SmemScope::Block);
        assert_eq!(san.violation_count, 0);
        san.note_barrier();
        san.note_smem_store(200, SmemScope::Block); // new epoch: fine again
        assert_eq!(san.violation_count, 0);
        san.note_smem_store(100, SmemScope::Block); // 300 > 256 within one epoch
        assert!(matches!(
            san.violations[0],
            SanitizerViolation::SharedStageOverflow {
                stored_bytes: 300,
                smem_bytes: 256
            }
        ));
    }

    #[test]
    fn report_caps_examples_but_counts_all() {
        let mut report = SanitizerReport::new("k".into(), 1);
        let mut san = BlockSan::for_kernel(&[spec(0, "x", 4)], 0, true);
        for _ in 0..100 {
            san.check_global(0, 8, 4);
        }
        report.absorb_block(san);
        assert_eq!(report.violation_count, 100);
        assert!(report.violations.len() <= MAX_REPORTED);
        assert!(!report.clean());
    }

    #[test]
    fn lints_are_warnings_not_violations() {
        let mut san = BlockSan::for_kernel(&[spec(0, "x", 1 << 20)], 0, true);
        san.note_bank_conflict(2); // mild: below threshold
        san.note_bank_conflict(16);
        san.note_uncoalesced(0, 32, 32);
        san.note_uncoalesced(0, 8, 8); // too few lanes to matter
        assert_eq!(san.violation_count, 0);
        assert_eq!(san.warning_count, 2);
        let mut report = SanitizerReport::new("k".into(), 1);
        report.absorb_block(san);
        assert!(report.clean());
        assert_eq!(report.warning_count, 2);
    }
}
