//! The measurement harness shared by every workload: the span recorder, the
//! simulator-counter probe, the simulated-statistics digest, correctness
//! bookkeeping and the timed loop.
//!
//! The harness measures the workspace crates from outside. It times its own
//! calls into each crate's public functions, and it reads the simulator's
//! process-wide counters (`gpu_sim::metrics::global()`) as deltas over a
//! pass. Nothing is added inside the program.

use gpu_sim::trace::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: which layer, which operation, and which problem or
/// request it served. `parent` indexes the enclosing span.
#[derive(Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. When off, [`Tracer::call`] runs the closure and
/// reads no clock.
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(base: Instant) -> Self {
        Self {
            on: false,
            base,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index, or `None` when tracing is off.
    pub fn open(&mut self, layer: &'static str, name: &'static str, id: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        Some(index)
    }

    pub fn close(&mut self, index: Option<usize>) {
        if let Some(i) = index {
            let end = self.now_ns();
            self.spans[i].end_ns = end;
            let top = self.stack.pop();
            assert_eq!(top, Some(i), "spans must close in LIFO order");
        }
    }

    /// Run `f` as one call into `layer`.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(layer, name, id);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer self time in nanoseconds over the spans recorded so far: a
    /// span's duration minus the durations of its direct children. The self
    /// times of a root span and all its descendants sum exactly to the root's
    /// duration.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.layer).or_insert(0) += (s.end_ns - s.start_ns) - c;
        }
        out
    }

    /// Total time of each operation name, in nanoseconds (children included).
    pub fn op_ns(&self, layer: &str, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The spans as a Chrome `trace_event` document (open it in
    /// `chrome://tracing` or Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Simulator counters as a delta over one pass.
pub struct Counters {
    before: gpu_sim::MetricsSnapshot,
}

impl Counters {
    pub fn start() -> Self {
        Self {
            before: gpu_sim::metrics::global().snapshot(),
        }
    }

    /// Counter deltas since [`Counters::start`].
    pub fn delta(&self) -> BTreeMap<String, u64> {
        let after = gpu_sim::metrics::global().snapshot();
        after
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - self.before.get(k)))
            .collect()
    }
}

/// FNV-1a over the `Debug` text of every simulated statistic a pass
/// produced. `f64` debug output round-trips exactly, so two passes (or two
/// builds) agree on the digest only if every simulated number is
/// byte-identical.
#[derive(Clone, PartialEq, Eq)]
pub struct Digest {
    hash: u64,
    items: u64,
}

impl Digest {
    pub fn new() -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
            items: 0,
        }
    }

    pub fn add(&mut self, item: &impl std::fmt::Debug) {
        for b in format!("{item:?}").bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.items += 1;
    }

    pub fn hex(&self) -> String {
        format!("{:016x}/{}", self.hash, self.items)
    }
}

/// Correctness bookkeeping: each check is one attempted operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {}", what());
        }
    }
}

/// A named value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end name of a simulated result: its per-layer name without
/// the layer, so `dnn.tokens_per_s` is reported end to end as `tokens_per_s`.
fn short(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

/// Simulator counters that are simulated results, not host-engine
/// bookkeeping: they enter the digest. Cache, replay, dedup, sanitizer and
/// tuner counters change when the engine gets faster and are left out.
const SIMULATED_COUNTERS: [&str; 7] = [
    "launches",
    "blocks",
    "flops",
    "dram_bytes",
    "sim_time_ns",
    "fleet_transfers",
    "fleet_transfer_bytes",
];

fn is_simulated(counter: &str) -> bool {
    SIMULATED_COUNTERS.contains(&counter) || counter.starts_with("serve_")
}

/// What one timed pass of a workload produced.
pub struct Pass {
    /// Operations the pass attempted (problems profiled, requests offered,
    /// model steps run) and how many of them failed.
    pub ops: u64,
    pub failed_ops: u64,
    pub digest: Digest,
    /// Simulated results, named `layer.metric`; identical on every pass of a
    /// run. They are reported end to end under their short names and per
    /// layer under their full names.
    pub sim: Vec<Metric>,
    /// Further per-layer simulated values and counts, by full name;
    /// identical on every pass.
    pub layer: Vec<(&'static str, f64)>,
    /// Simulator counter deltas over the pass (filled in by [`measure`]).
    pub counters: BTreeMap<String, u64>,
    /// Bit hashes of functional outputs, for checks after the timed phase.
    pub outputs: Vec<(&'static str, u64)>,
}

/// A paper anchor printed beside a simulated metric.
pub struct Anchor {
    pub metric: &'static str,
    pub source: &'static str,
    pub value: f64,
}

/// Everything a workload plugs into [`measure`].
pub struct Workload<I> {
    pub name: &'static str,
    pub setup: fn(u64, &mut Tracer) -> I,
    pub pass: fn(&I, &mut Tracer) -> Pass,
    /// Runs once after the timed phase: the correctness checks, and any
    /// simulated results not computed in the pass (untimed), named like
    /// [`Pass::sim`].
    pub after: fn(&I, &Pass, &mut Checks) -> Vec<Metric>,
    pub anchors: &'static [Anchor],
    /// Metrics of this workload that no reference exists for.
    pub unvalidated: &'static [&'static str],
}

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Inputs are built once before the first pass and rebuilt after every
/// pass, at least once and until set-ups have taken this share of the run.
/// Spread over the whole run, the set-ups sample the host's fast and slow
/// spells alike, and their median is reported as `setup_s`.
const SETUP_SHARE: f64 = 0.05;
/// A run measures at least this many passes (traced runs: this many of each
/// kind), even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

fn fmt_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

/// Run a workload: repeat its pass for `--seconds` (untraced; in a traced
/// run, alternating untraced and traced passes), rebuilding its inputs
/// between passes; then check its outputs, print a report and the result
/// line. Returns whether every check passed.
pub fn measure<I>(w: &Workload<I>, args: &Args) -> bool {
    let base = Instant::now();
    let mut tracer = Tracer::new(base);

    // Set-up: inputs from the seed. Every set-up gives the same inputs, and
    // the digest check below holds every pass, on whichever set-up's inputs,
    // to the first pass's simulated results.
    let mut setup_s = Vec::new();
    let mut setup_tracer = Tracer::new(base);
    setup_tracer.set_enabled(args.trace);
    let mut build = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let inputs = (w.setup)(args.seed, &mut setup_tracer);
        setup_s.push(t.elapsed().as_secs_f64());
        inputs
    };
    let mut inputs = build(&mut setup_s);

    // Timed phase.
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let phase = Instant::now();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let enough =
            untraced_s.len() >= MIN_PASSES && (!args.trace || traced_s.len() >= MIN_PASSES);
        if enough && phase.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        tracer.set_enabled(traced);
        let t = Instant::now();
        // The root span belongs to the harness: its self time is the part of
        // the pass no layer span covers.
        let root = tracer.open("harness", "pass", passes.len() as u64);
        let counters = Counters::start();
        let mut pass = (w.pass)(&inputs, &mut tracer);
        pass.counters = counters.delta();
        tracer.close(root);
        let dt = t.elapsed().as_secs_f64();
        for (name, value) in &pass.counters {
            if is_simulated(name) {
                pass.digest.add(&(name, value));
            }
        }
        let sim_ns = pass.counters.get("sim_time_ns").copied().unwrap_or(0);
        pass.sim
            .insert(0, ("gpu-sim.sim_us", sim_ns as f64 / 1e3, "us"));
        if traced {
            traced_s.push(dt);
        } else {
            untraced_s.push(dt);
        }
        passes.push(pass);

        let built = setup_s.len();
        while setup_s.len() == built
            || setup_s.iter().sum::<f64>() < SETUP_SHARE * phase.elapsed().as_secs_f64()
        {
            // Free the old inputs first, so that peak memory stays that of
            // one set of inputs.
            drop(inputs);
            inputs = build(&mut setup_s);
        }
    }
    tracer.set_enabled(false);
    let peak = peak_rss_mb();

    // Correctness: every pass must reproduce the first pass's simulated
    // statistics bit for bit (traced or not), and every operation succeed.
    let mut checks = Checks::default();
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate() {
        checks.attempted += p.ops;
        checks.failed += p.failed_ops;
        checks.check(p.digest == first.digest, || {
            format!(
                "pass {i} digest {} != pass 0 digest {}",
                p.digest.hex(),
                first.digest.hex()
            )
        });
    }
    let after = (w.after)(&inputs, first, &mut checks);

    let wall_s = median(&untraced_s);
    let sim: Vec<Metric> = first.sim.iter().chain(&after).copied().collect();
    let mut reported: BTreeMap<&str, f64> = sim.iter().map(|m| (short(m.0), m.1)).collect();
    reported.extend([
        ("setup_s", median(&setup_s)),
        ("wall_s", wall_s),
        ("peak_rss_mb", peak),
    ]);
    let e2e: Vec<(String, f64, String)> = declared_metrics("end_to_end")
        .into_iter()
        .map(|(name, unit)| match reported.get(name.as_str()) {
            Some(&value) => (name, value, unit),
            None => panic!("workload {} does not report {name}", w.name),
        })
        .collect();

    // Human-readable report: the gated metrics, then the workload's own.
    println!(
        "workload {} seed {} — {} passes ({} traced) and {} set-ups in {:.3} s",
        w.name,
        args.seed,
        passes.len(),
        traced_s.len(),
        setup_s.len(),
        phase.elapsed().as_secs_f64()
    );
    println!("end-to-end (host metrics: median over set-ups / untraced passes):");
    let gated = e2e
        .iter()
        .map(|(name, value, unit)| (name.as_str(), *value, unit.as_str()));
    let own = sim
        .iter()
        .map(|&(name, value, unit)| (short(name), value, unit))
        .filter(|m| !e2e.iter().any(|g| g.0 == m.0));
    for (name, value, unit) in gated.chain(own) {
        let note = if let Some(a) = w.anchors.iter().find(|a| a.metric == name) {
            format!(
                "  [{} {}: error {:+.1}%]",
                a.source,
                a.value,
                100.0 * (value / a.value - 1.0)
            )
        } else if w.unvalidated.contains(&name) {
            "  [unvalidated: no reference]".to_string()
        } else {
            String::new()
        };
        println!("  {name:<22} {value:>16.6} {unit}{note}");
    }
    println!("sim digest {} {}", w.name, first.digest.hex());
    println!(
        "checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );

    let metrics: Vec<String> = if args.trace {
        // Every set-up is traced; report one set-up's input generation.
        let generate_ns: u64 = setup_tracer
            .spans()
            .iter()
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let generate_s = generate_ns as f64 / 1e9 / setup_s.len() as f64;
        let values = layer_metrics(w.name, first, &sim, &tracer, generate_s, &traced_s, wall_s);
        // A workload that does not reach a layer reports 0 for it.
        let layer: Vec<(String, f64, String)> = declared_metrics("per_layer")
            .into_iter()
            .map(|(name, unit)| {
                let value = values.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect();
        println!("per-layer (traced passes, per pass):");
        for (name, value, unit) in &layer {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        write_spans(w.name, args.seed, &setup_tracer, &tracer);
        layer.iter().map(|(n, v, u)| fmt_metric(n, *v, u)).collect()
    } else {
        e2e.iter().map(|(n, v, u)| fmt_metric(n, *v, u)).collect()
    };
    let correct = checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    );
    correct
}

/// The metric list `key` (`end_to_end` or `per_layer`) of `BENCHMARK.json`:
/// the names and units the result line reports, in order.
fn declared_metrics(key: &str) -> Vec<(String, String)> {
    let doc = parse_json(include_str!("../../BENCHMARK.json"))
        .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"));
    let field = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).map(str::to_owned);
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .filter_map(|m| Some((field(m, "name")?, field(m, "unit")?)))
        .collect()
}

/// Per-layer host times: the summed span time of each (layer, operation).
const OP_TIMES: [(&str, &str, &str); 8] = [
    ("baselines.cusparse_s", "baselines", "cusparse_spmm"),
    ("baselines.cusparse_s", "baselines", "cusparse_sddmm"),
    ("sputnik.spmm_s", "sputnik", "spmm"),
    ("sputnik.sddmm_s", "sputnik", "sddmm"),
    ("sputnik.shard_s", "sputnik", "spmm_row_sharded"),
    ("dnn.transformer_s", "dnn", "transformer_step"),
    ("dnn.mobilenet_s", "dnn", "mobilenet_step"),
    ("serve.run_s", "serve", "run"),
];

/// Per-layer metrics read straight from a simulator counter delta.
const COUNTERS: [(&str, &str); 7] = [
    ("sputnik.tune_searches", "tune_searches"),
    ("gpu-sim.launches", "launches"),
    ("gpu-sim.blocks", "blocks"),
    ("gpu-sim.dram_bytes", "dram_bytes"),
    ("gpu-sim.flops", "flops"),
    ("gpu-sim.fleet_transfers", "fleet_transfers"),
    ("gpu-sim.fleet_transfer_bytes", "fleet_transfer_bytes"),
];

/// The per-layer values of a traced run, by name: span times (per traced
/// pass), counter deltas, the simulated results and the pass's own
/// per-layer values.
fn layer_metrics(
    workload: &str,
    pass: &Pass,
    sim: &[Metric],
    tracer: &Tracer,
    generate_s: f64,
    traced_s: &[f64],
    untraced_wall_s: f64,
) -> BTreeMap<String, f64> {
    let n = traced_s.len() as f64;
    let per_pass_s = |ns: u64| ns as f64 / 1e9 / n;
    let c = |k: &str| pass.counters.get(k).copied().unwrap_or(0) as f64;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();

    // Self times: the layers plus the harness remainder sum exactly to the
    // traced timed phase (the root spans), in integer nanoseconds.
    let self_ns = tracer.self_ns();
    let roots_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let sum_ns: u64 = self_ns.values().sum();
    assert_eq!(
        sum_ns, roots_ns,
        "layer self times must sum to the traced phase"
    );
    println!(
        "trace check {workload}: {} layer self-time rows sum to {} ns = traced phase {} ns over {} passes",
        self_ns.len(),
        sum_ns,
        roots_ns,
        traced_s.len()
    );
    for (layer, ns) in self_ns {
        values.insert(format!("{layer}.self_s"), per_pass_s(ns));
    }
    let traced_wall_s = median(traced_s);
    values.insert("harness.traced_wall_s".into(), traced_wall_s);
    let overhead = traced_wall_s / untraced_wall_s - 1.0;
    values.insert("harness.tracing_overhead".into(), overhead);
    values.insert("sparse.generate_s".into(), generate_s);
    for (metric, layer, op) in OP_TIMES {
        *values.entry(metric.into()).or_insert(0.0) += per_pass_s(tracer.op_ns(layer, op));
    }

    // Simulator counters over one pass.
    for (metric, counter) in COUNTERS {
        values.insert(metric.into(), c(counter));
    }
    let ratio = |num: f64, den: f64, empty: f64| if den > 0.0 { num / den } else { empty };
    let (blocks, launches) = (c("blocks"), c("launches"));
    let dedup = ratio(c("dedup_blocks_executed"), c("dedup_blocks_total"), 1.0);
    values.insert("gpu-sim.dedup_exec_ratio".into(), dedup);
    let ns_per_block = ratio(traced_wall_s * 1e9, blocks, 0.0);
    values.insert("gpu-sim.host_ns_per_block".into(), ns_per_block);
    let replays = ratio(c("launches_replayed"), launches, 0.0);
    values.insert("gpu-sim.replay_ratio".into(), replays);
    let sim = sim.iter().map(|&(name, value, _)| (name, value));
    for (name, value) in sim.chain(pass.layer.iter().copied()) {
        values.insert(name.into(), value);
    }
    if let Some(&requests) = values.get("serve.requests") {
        let run_s = values.get("serve.run_s").copied().unwrap_or(0.0);
        values.insert("serve.host_us_per_request".into(), run_s * 1e6 / requests);
    }
    values
}

/// Write the recorded spans (set-up, then the timed phase) to
/// `perfbench/out/` as Chrome trace JSON.
fn write_spans(workload: &str, seed: u64, setup: &Tracer, phase: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let result = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{workload}-seed{seed}-setup.trace.json")),
            setup.chrome_json(),
        )?;
        std::fs::write(
            dir.join(format!("{workload}-seed{seed}.trace.json")),
            phase.chrome_json(),
        )
    });
    match result {
        Ok(()) => println!(
            "spans: {} set-up + {} timed-phase spans written to {}",
            setup.spans().len(),
            phase.spans().len(),
            dir.display()
        ),
        Err(e) => println!("spans not written: {e}"),
    }
}
