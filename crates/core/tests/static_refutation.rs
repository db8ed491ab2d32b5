//! Seeded-violation tests for the static launch auditor at the launch
//! funnel: one provably-bad kernel per check class, each driven through
//! every public launch path — [`Gpu::run`] in functional, profile, cached
//! functional and cached profile mode, and [`Fleet::launch`].
//!
//! The probe kernel **panics in `execute_block`**, so these tests prove the
//! strongest property the auditor claims: a `Refuted` launch is rejected
//! with a typed [`SputnikError::StaticallyRefuted`] *before the simulator
//! executes a single block*, whichever path it took. If a path ran the
//! launch first, the probe's panic would fail the test before the
//! assertion was reached.

use gpu_sim::{
    AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferId,
    BufferSpec, Dim3, Fleet, Gpu, Kernel, Launch, LaunchCache, LaunchError, StageBound,
    StaticFacts, VectorClass,
};
use sputnik::SputnikError;

/// A probe whose block body must never run: each constructor seeds exactly
/// one class of statically refutable violation.
struct Refutable {
    grid: Dim3,
    block: Dim3,
    smem: u32,
    facts: StaticFacts,
    executable: bool,
}

const FOOTPRINT: u64 = 4096;

impl Refutable {
    fn clean() -> Self {
        Refutable {
            grid: Dim3::x(4),
            block: Dim3::x(64),
            smem: 1024,
            facts: StaticFacts {
                bounds: Some(vec![BufferBound {
                    slot: 0,
                    bound: AccessBound::Extent(FOOTPRINT),
                }]),
                alignment: AlignmentFacts::ScalarOnly,
                barrier: BarrierFacts::WarpSynchronous,
                stage: StageBound::Bytes(0),
            },
            executable: false,
        }
    }
}

impl Kernel for Refutable {
    fn name(&self) -> String {
        "refutable_probe".into()
    }
    fn grid(&self) -> Dim3 {
        self.grid
    }
    fn block_dim(&self) -> Dim3 {
        self.block
    }
    fn shared_mem_bytes(&self) -> u32 {
        self.smem
    }
    fn buffers(&self) -> Vec<BufferSpec> {
        vec![BufferSpec {
            id: BufferId(0),
            name: "buf",
            footprint_bytes: FOOTPRINT,
            pattern: AccessPattern::Streaming,
        }]
    }
    fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
        assert!(
            self.executable,
            "a statically refuted launch reached execute_block — the \
             dispatch gate ran the simulation before (or instead of) \
             rejecting it"
        );
        ctx.ld_global(BufferId(0), 0, 32, 1, 4);
    }
    fn static_facts(&self) -> StaticFacts {
        self.facts.clone()
    }
}

/// Demand a typed refutation of the expected class.
fn check_refuted(path: &str, result: Result<gpu_sim::Launched, LaunchError>, expected_class: &str) {
    match result.map_err(SputnikError::from) {
        Err(SputnikError::StaticallyRefuted {
            kernel,
            class,
            detail,
        }) => {
            assert_eq!(kernel, "refutable_probe", "{path}");
            assert_eq!(class, expected_class, "{path}: wrong class: {detail}");
            assert!(!detail.is_empty(), "{path}");
        }
        Err(other) => panic!("{path}: expected StaticallyRefuted, got: {other}"),
        Ok(_) => panic!("{path}: a seeded {expected_class} violation launched successfully"),
    }
}

/// Drive the probe through every launch path and demand a refutation of
/// the expected class from each.
fn expect_refuted(probe: &Refutable, expected_class: &str) {
    let gpu = Gpu::v100();
    let cache = LaunchCache::new();
    let before = gpu_sim::metrics::global().get("static_refuted");
    let requests = [
        ("functional", Launch::FUNCTIONAL),
        ("profile", Launch::PROFILE),
        ("cached functional", Launch::FUNCTIONAL.cached(&cache, 1)),
        ("cached profile", Launch::PROFILE.cached(&cache, 2)),
    ];
    for (path, req) in &requests {
        check_refuted(path, gpu.run(req, probe), expected_class);
    }
    let mut fleet = Fleet::v100(2);
    check_refuted(
        "fleet",
        fleet.launch(1, &Launch::FUNCTIONAL, probe),
        expected_class,
    );
    assert!(cache.is_empty(), "a refuted launch must not be memoized");
    // One rejection per request plus the fleet launch.
    let paths = requests.len() as u64 + 1;
    let after = gpu_sim::metrics::global().get("static_refuted");
    assert!(
        after >= before + paths,
        "static_refuted did not count every rejection"
    );
}

#[test]
fn clean_probe_passes_the_gate_and_launches() {
    let mut probe = Refutable::clean();
    probe.executable = true;
    let stats = Gpu::v100()
        .run(&Launch::FUNCTIONAL, &probe)
        .expect("clean launch")
        .stats;
    assert_eq!(stats.blocks, 4);
}

#[test]
fn bounds_overrun_is_rejected_before_simulation() {
    let mut probe = Refutable::clean();
    probe.facts.bounds = Some(vec![BufferBound {
        slot: 0,
        bound: AccessBound::Extent(FOOTPRINT + 4),
    }]);
    expect_refuted(&probe, "bounds");
}

#[test]
fn misaligned_vector_class_is_rejected_before_simulation() {
    let mut probe = Refutable::clean();
    probe.facts.alignment = AlignmentFacts::Residues(vec![VectorClass {
        slot: 0,
        vec_width: 4,
        elem_bytes: 4,
        worst_residue: 8,
    }]);
    expect_refuted(&probe, "alignment");
}

#[test]
fn shared_stage_overflow_is_rejected_before_simulation() {
    let mut probe = Refutable::clean();
    // Declares staging more bytes per barrier epoch than the block's
    // shared memory holds.
    probe.facts.stage = StageBound::Bytes(u64::from(probe.smem) + 64);
    expect_refuted(&probe, "shared_capacity");
}

#[test]
fn oversized_block_is_rejected_before_simulation() {
    let mut probe = Refutable::clean();
    probe.block = Dim3::x(2048); // device max is 1024 threads per block
    expect_refuted(&probe, "grid_occupancy");
}

#[test]
fn barrier_free_multiwarp_producer_is_rejected_before_simulation() {
    let mut probe = Refutable::clean();
    // Multi-warp block staging through shared memory with no barrier at
    // all: consumers can never synchronize with producers.
    probe.facts.barrier = BarrierFacts::NoBarrier;
    expect_refuted(&probe, "barrier_structure");
}
