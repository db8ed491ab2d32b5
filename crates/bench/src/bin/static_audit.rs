//! Statically audit every registered kernel/launch pair — the workspace's
//! `compute-sanitizer`-without-running-anything pass.
//!
//! For each pair in [`sputnik_bench::registry`] the bin runs
//! [`Gpu::audit`], which analyzes the launch descriptor (declared
//! footprints, alignment residue classes, shared-memory staging bounds,
//! grid/occupancy limits, barrier structure) against the device model and
//! returns a per-check three-valued verdict: `proven` (holds for every
//! block), `refuted` (the launch funnel rejects the launch before a single
//! block runs), or `needs_dynamic` (undecidable from metadata — only the
//! sanitizer can rule).
//!
//! The bin then times the registry three ways:
//!
//! * `audit` — the static pass alone. Pure metadata analysis; orders of
//!   magnitude cheaper than any dynamic sweep.
//! * `full` — an uncached sanitized [`Launch`] request: the audit plus
//!   every dynamic check.
//! * `cached` — the same request against a warm [`LaunchCache`]:
//!   fingerprint-identical repeat launches replay the memoized report and
//!   skip the whole dynamic pass. This is the production configuration
//!   (`sanitize_all` runs it) and where the wall time actually collapses,
//!   because the racecheck's shadow map — the dominant dynamic cost — is
//!   skipped too.
//!
//! Results land in `BENCH_staticwall.json` (repo root). `--check
//! <baseline.json>` gates CI on the machine-independent counters — pair
//! count, per-class proven counts (exact: a kernel regressing from
//! `proven` to `needs_dynamic` is a lost static guarantee), zero
//! refutations on shipped kernels, the >= 60% proven floor — plus the
//! in-process wall ratios (audit and cached sweeps must stay far cheaper
//! than the full dynamic sweep).

// Wall-timing bin: reading the host clock is the whole point here, and is
// exactly what `clippy.toml` bans inside simulated-clock code.
#![allow(clippy::disallowed_methods)]

use gpu_sim::{CheckClass, Gpu, Kernel, Launch, LaunchCache, Launched, Verdict};
use sputnik_bench::{gate, has_flag, registry, Table};
use std::time::Instant;

/// Per-class verdict tallies, indexed `[class][verdict]`.
#[derive(Default)]
struct Tally {
    counts: [[u64; 3]; CheckClass::ALL.len()],
}

/// Exit with a message on a failed launch: in this bin an `Err` means a
/// registered kernel refused to sanitize, which is itself an audit failure.
fn ok<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("static_audit: {what}: {e}");
        std::process::exit(1);
    })
}

/// One sanitized launch, through `cache` under `fingerprint` when given.
fn sanitize(gpu: &Gpu, cache: Option<(&LaunchCache, u64)>, kernel: &dyn Kernel) -> Launched {
    let req = Launch {
        cache,
        ..Launch::SANITIZE
    };
    ok(gpu.run(&req, kernel), "sanitize")
}

fn class_idx(class: CheckClass) -> usize {
    CheckClass::ALL
        .iter()
        .position(|&x| x == class)
        .unwrap_or_else(|| unreachable!("check class missing from CheckClass::ALL"))
}

fn verdict_idx(v: Verdict) -> usize {
    match v {
        Verdict::Proven => 0,
        Verdict::NeedsDynamic => 1,
        Verdict::Refuted => 2,
    }
}

impl Tally {
    fn add(&mut self, class: CheckClass, v: Verdict) {
        let c = class_idx(class);
        self.counts[c][verdict_idx(v)] += 1;
    }

    fn class(&self, class: CheckClass, v: Verdict) -> u64 {
        let c = class_idx(class);
        self.counts[c][verdict_idx(v)]
    }

    fn total(&self, v: Verdict) -> u64 {
        self.counts.iter().map(|row| row[verdict_idx(v)]).sum()
    }
}

fn main() {
    let verbose = has_flag("--verbose");
    let reps: u32 = if has_flag("--full") {
        8
    } else if has_flag("--quick") {
        1
    } else {
        3
    };
    let gpu = Gpu::v100();

    // Pass 1: the audit itself. Pure metadata analysis; also the list the
    // CI gate keys on.
    let mut tally = Tally::default();
    let mut pairs = 0u64;
    let mut refutations: Vec<String> = Vec::new();
    registry::for_each_kernel(&mut |kernel| {
        let audit = gpu.audit(kernel);
        pairs += 1;
        for f in &audit.findings {
            tally.add(f.class, f.verdict);
            if f.verdict == Verdict::Refuted {
                refutations.push(format!(
                    "{} [{}]: {}",
                    audit.kernel,
                    f.class.name(),
                    f.detail
                ));
            }
        }
        if verbose {
            println!("{audit}");
        }
    });

    let mut table = Table::new(
        "static_audit — per-class verdicts over the kernel registry",
        &["check class", "proven", "needs_dynamic", "refuted"],
    );
    for &class in &CheckClass::ALL {
        table.row(&[
            class.name().into(),
            format!("{}", tally.class(class, Verdict::Proven)),
            format!("{}", tally.class(class, Verdict::NeedsDynamic)),
            format!("{}", tally.class(class, Verdict::Refuted)),
        ]);
    }
    table.print();

    let proven = tally.total(Verdict::Proven);
    let needs_dynamic = tally.total(Verdict::NeedsDynamic);
    let refuted = tally.total(Verdict::Refuted);
    let checks_total = pairs * CheckClass::ALL.len() as u64;
    let proven_frac = proven as f64 / checks_total.max(1) as f64;
    println!(
        "{pairs} kernel/launch pairs, {checks_total} checks: \
         {proven} proven ({:.1}%), {needs_dynamic} dynamic, {refuted} refuted",
        proven_frac * 100.0
    );
    for r in &refutations {
        println!("REFUTED {r}");
    }

    // Pass 2: what each check level costs. Warm up once so worker pools
    // and arenas do not bill the first measured sweep.
    registry::for_each_kernel(&mut |kernel| {
        sanitize(&gpu, None, kernel);
    });
    let t = Instant::now();
    for _ in 0..reps {
        registry::for_each_kernel(&mut |kernel| {
            gpu.audit(kernel);
        });
    }
    let audit_sweep_ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
    let t = Instant::now();
    for _ in 0..reps {
        registry::for_each_kernel(&mut |kernel| {
            sanitize(&gpu, None, kernel);
        });
    }
    let full_ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
    // The registry is deterministic, so the pair index is a sound operand
    // fingerprint: same index, same operands.
    let cache = LaunchCache::new();
    let mut fp = 0u64;
    registry::for_each_kernel(&mut |kernel| {
        fp += 1;
        sanitize(&gpu, Some((&cache, fp)), kernel);
    });
    let t = Instant::now();
    let mut cache_hits = 0u64;
    for _ in 0..reps {
        let mut fp = 0u64;
        registry::for_each_kernel(&mut |kernel| {
            fp += 1;
            cache_hits += u64::from(sanitize(&gpu, Some((&cache, fp)), kernel).hit);
        });
    }
    let cached_ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
    let audit_vs_full = audit_sweep_ms / full_ms.max(1e-9);
    let cached_vs_full = cached_ms / full_ms.max(1e-9);
    println!(
        "sweep walls [{reps} reps]: audit {audit_sweep_ms:.2} ms ({:.1}% of full), \
         full {full_ms:.1} ms, warm-cache {cached_ms:.1} ms ({:.1}%, {cache_hits} hits)",
        audit_vs_full * 100.0,
        cached_vs_full * 100.0
    );

    // Hand-rolled flat JSON: the vendored serde stub cannot serialize.
    let mut json = String::from("{\n  \"bench\": \"staticwall\",\n");
    json.push_str(&format!("  \"pairs_total\": {pairs},\n"));
    json.push_str(&format!("  \"checks_total\": {checks_total},\n"));
    for &class in &CheckClass::ALL {
        for (v, tag) in [
            (Verdict::Proven, "proven"),
            (Verdict::NeedsDynamic, "needs_dynamic"),
            (Verdict::Refuted, "refuted"),
        ] {
            json.push_str(&format!(
                "  \"{}_{}\": {},\n",
                class.name(),
                tag,
                tally.class(class, v)
            ));
        }
    }
    json.push_str(&format!("  \"proven_total\": {proven},\n"));
    json.push_str(&format!("  \"needs_dynamic_total\": {needs_dynamic},\n"));
    json.push_str(&format!("  \"refuted_total\": {refuted},\n"));
    json.push_str(&format!("  \"proven_frac\": {proven_frac:.4},\n"));
    json.push_str(&format!("  \"audit_ms\": {audit_sweep_ms:.3},\n"));
    json.push_str(&format!("  \"sanitize_full_ms\": {full_ms:.3},\n"));
    json.push_str(&format!("  \"sanitize_cached_ms\": {cached_ms:.3},\n"));
    json.push_str(&format!("  \"audit_vs_full\": {audit_vs_full:.4},\n"));
    json.push_str(&format!("  \"cached_vs_full\": {cached_vs_full:.4}\n}}\n"));
    let out = "BENCH_staticwall.json";
    match std::fs::write(out, &json) {
        Ok(()) => eprintln!("[results written to {out}]"),
        Err(e) => eprintln!("[failed to write {out}: {e}]"),
    }

    // CI gate.
    let baseline_arg = std::env::args().skip_while(|a| a != "--check").nth(1);
    if let Some(baseline_path) = baseline_arg {
        let result = gate::read_baseline(&baseline_path).and_then(|base| {
            // The registry itself is deterministic: a pair-count change
            // means a kernel was added or dropped — regenerate the
            // baseline deliberately, don't let it drift.
            gate::require_exact(
                "pairs_total",
                gate::metric_u64(&base, "pairs_total", &baseline_path)?,
                pairs,
            )?;
            // Shipped kernels must audit clean: any refutation is a bug
            // in a kernel's declared facts or in the kernel itself.
            gate::require_exact("refuted_total", 0, refuted)?;
            // Per-class proven counts are exact: a kernel silently
            // regressing from `proven` to `needs_dynamic` loses a static
            // guarantee (and re-arms its dynamic check) without failing
            // any test — this is the gate that catches it.
            for &class in &CheckClass::ALL {
                let key = format!("{}_proven", class.name());
                gate::require_exact(
                    &key,
                    gate::metric_u64(&base, &key, &baseline_path)?,
                    tally.class(class, Verdict::Proven),
                )?;
            }
            // The paper-level acceptance floor, independent of baseline.
            gate::require_not_below("proven_frac", 0.60, proven_frac, 1.0)?;
            // Wall gates on in-process ratios (far more stable than either
            // absolute wall on a shared CI runner). The static audit must
            // stay orders of magnitude cheaper than the dynamic sweep it
            // replaces checks of — 0.25 is hugely generous vs the ~0.01
            // observed. The warm-cache sweep (production mode) must keep
            // collapsing the dynamic cost.
            gate::require_not_above("audit_vs_full", 0.25, audit_vs_full, 1.0)?;
            gate::require_not_above("cached_vs_full", 0.60, cached_vs_full, 1.0)?;
            gate::require_exact("cache_hits", u64::from(reps) * pairs, cache_hits)?;
            Ok(())
        });
        match result {
            Ok(()) => println!("[--check passed vs {baseline_path}]"),
            Err(e) => {
                eprintln!("[--check FAILED: {e}]");
                std::process::exit(1);
            }
        }
    }
}
