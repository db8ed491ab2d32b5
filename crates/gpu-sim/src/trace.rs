//! Structured launch tracing: a lightweight, always-available event
//! recorder, a Chrome `trace_event` exporter, and a profile report.
//!
//! The simulator's value over hardware counters is visibility (cf. Lew et
//! al., "Analyzing Machine Learning Workloads Using a Detailed GPU
//! Simulator"): every launch already computes instruction counts, DRAM
//! traffic, occupancy, and a pipeline breakdown — this module records *where
//! in a model run* each launch happened so sweeps can be compared across
//! PRs and opened in a timeline viewer.
//!
//! ## Model
//!
//! Events land on **tracks** (one per device/stream, keyed by name). Each
//! track carries a simulated clock, in microseconds, that only launches and
//! replays advance:
//!
//! * [`launch`] — a kernel launch; a duration event carrying the full
//!   [`LaunchStats`]. Advances the track clock by `stats.time_us`.
//! * [`replay`] — replicated work (e.g. the remaining attention heads of a
//!   transformer layer, costed once and multiplied): advances the clock
//!   without re-simulating.
//! * [`begin_span`] / [`end_span`] — a named region (a model layer, a tuning
//!   search). Duration is the simulated time that elapsed on the track while
//!   it was open.
//! * [`instant`] — a point event: cache hit/miss, dispatch-ladder step,
//!   fault injection, sanitizer run.
//!
//! ## Cost when disabled
//!
//! Tracing is **off by default**; every recording entry point is a single
//! relaxed atomic load when disabled, so the launch fast path (`simwall`)
//! pays nothing measurable. Call sites that would `format!` an event name
//! should guard on [`enabled`] first.
//!
//! ## Export
//!
//! [`chrome_trace_json`] serializes a drained event list to Chrome
//! `trace_event` JSON through the workspace's [`Json`] writer. Load the file in `chrome://tracing` or
//! <https://ui.perfetto.dev>: each track is a named thread row, launches and
//! spans are duration slices, and synthesized counter tracks show occupancy
//! and DRAM bandwidth per launch. [`validate_chrome_trace`] re-parses the
//! output and checks the structural schema; CI runs it on every
//! `trace_model` artifact.

pub use crate::json::{parse_json, Json};
use crate::launch::LaunchStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A kernel launch (simulated or replayed from a cache), with its full
    /// statistics. `cached` is `Some(true)` for cache hits, `Some(false)`
    /// for recorded misses, `None` when no cache was consulted.
    Launch {
        stats: Box<LaunchStats>,
        cached: Option<bool>,
    },
    /// A closed span: `dur_us` of simulated time elapsed while it was open.
    Span { dur_us: f64 },
    /// Replicated work advancing the clock without simulation: `count`
    /// repetitions totalling `dur_us`.
    Replay { dur_us: f64, count: u64 },
    /// A point event (cache hit/miss, dispatch rung, fault, sanitizer run).
    Instant,
    /// A named counter sample at the track's current clock — a step on a
    /// Chrome counter (`"ph":"C"`) track. Used for workload-level gauges the
    /// launcher cannot synthesize itself, e.g. the joint-sparsity kernels'
    /// `joint_tiles_skipped` / `joint_tiles_total` skip-rate tracks.
    Counter { value: u64 },
    /// A cross-device interconnect transfer occupying the source device's
    /// track for `dur_us`: `bytes` moved toward `dst`. The exporter
    /// synthesizes an `interconnect_bytes` counter track from these
    /// (bytes in flight at the start, back to zero at the end).
    Transfer {
        dur_us: f64,
        bytes: u64,
        dst: String,
    },
}

/// One recorded event. Timestamps are simulated microseconds on the track's
/// clock, which starts at zero when tracing is enabled.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: String,
    /// Category: "launch", "replay", "layer", "tune", "cache", "dispatch",
    /// "fault", "sanitizer", ...
    pub cat: &'static str,
    /// Track (thread row in the viewer): usually the device name.
    pub track: String,
    pub ts_us: f64,
    pub kind: EventKind,
}

impl TraceEvent {
    /// The simulated duration this event occupies on its track.
    pub fn dur_us(&self) -> f64 {
        match &self.kind {
            EventKind::Launch { stats, .. } => stats.time_us,
            EventKind::Span { dur_us }
            | EventKind::Replay { dur_us, .. }
            | EventKind::Transfer { dur_us, .. } => *dur_us,
            EventKind::Instant | EventKind::Counter { .. } => 0.0,
        }
    }
}

struct OpenSpan {
    name: String,
    cat: &'static str,
    track: String,
    start_us: f64,
}

struct Recorder {
    events: Vec<TraceEvent>,
    /// Per-track simulated clocks. Tracks are few; linear scan is fine and
    /// keeps the constructor `const`.
    clocks: Vec<(String, f64)>,
    open: Vec<OpenSpan>,
}

impl Recorder {
    const fn new() -> Self {
        Self {
            events: Vec::new(),
            clocks: Vec::new(),
            open: Vec::new(),
        }
    }

    fn clock(&self, track: &str) -> f64 {
        self.clocks
            .iter()
            .find(|(t, _)| t == track)
            .map_or(0.0, |&(_, c)| c)
    }

    fn advance(&mut self, track: &str, us: f64) {
        if let Some(entry) = self.clocks.iter_mut().find(|(t, _)| t == track) {
            entry.1 += us;
        } else {
            self.clocks.push((track.to_string(), us));
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Recorder> = Mutex::new(Recorder::new());

fn lock() -> MutexGuard<'static, Recorder> {
    // A poisoned mutex only means another thread panicked mid-record; the
    // event list itself is still valid.
    match RECORDER.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Is the recorder on? One relaxed atomic load — the only cost every launch
/// pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the recorder on, clearing any previous events, clocks, and open
/// spans. Track clocks restart at zero.
pub fn enable() {
    let mut r = lock();
    r.events.clear();
    r.clocks.clear();
    r.open.clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn the recorder off and return everything it captured.
pub fn disable() -> Vec<TraceEvent> {
    ENABLED.store(false, Ordering::SeqCst);
    let mut r = lock();
    r.clocks.clear();
    r.open.clear();
    std::mem::take(&mut r.events)
}

/// Take the captured events without disabling (clocks keep running).
pub fn drain() -> Vec<TraceEvent> {
    std::mem::take(&mut lock().events)
}

/// Current simulated clock of a track, in microseconds.
pub fn clock(track: &str) -> f64 {
    lock().clock(track)
}

/// Record a launch on `track` and advance its clock by `stats.time_us`.
/// Called by the launcher for every simulated launch and every cache hit;
/// model code normally never calls this directly.
pub fn launch(track: &str, stats: &LaunchStats, cached: Option<bool>) {
    if !enabled() {
        return;
    }
    let mut r = lock();
    let ts_us = r.clock(track);
    r.events.push(TraceEvent {
        name: stats.kernel.clone(),
        cat: "launch",
        track: track.to_string(),
        ts_us,
        kind: EventKind::Launch {
            stats: Box::new(stats.clone()),
            cached,
        },
    });
    r.advance(track, stats.time_us);
}

/// Record replicated work: `count` repetitions totalling `dur_us`, costed
/// once and multiplied by the model (e.g. identical transformer layers).
/// Advances the track clock by `dur_us`.
pub fn replay(track: &str, name: &str, dur_us: f64, count: u64) {
    if !enabled() {
        return;
    }
    let mut r = lock();
    let ts_us = r.clock(track);
    r.events.push(TraceEvent {
        name: name.to_string(),
        cat: "replay",
        track: track.to_string(),
        ts_us,
        kind: EventKind::Replay { dur_us, count },
    });
    r.advance(track, dur_us);
}

/// Record a point event at the track's current clock.
pub fn instant(cat: &'static str, track: &str, name: &str) {
    if !enabled() {
        return;
    }
    let mut r = lock();
    let ts_us = r.clock(track);
    r.events.push(TraceEvent {
        name: name.to_string(),
        cat,
        track: track.to_string(),
        ts_us,
        kind: EventKind::Instant,
    });
}

/// Record a counter sample at the track's current clock: a step on a named
/// Chrome counter track. The exporter emits it as a `"ph":"C"` event whose
/// `args` carry `{ "value": <value> }`. Does not advance the clock — pair it
/// with the launches whose work it annotates.
pub fn counter(cat: &'static str, track: &str, name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let mut r = lock();
    let ts_us = r.clock(track);
    r.events.push(TraceEvent {
        name: name.to_string(),
        cat,
        track: track.to_string(),
        ts_us,
        kind: EventKind::Counter { value },
    });
}

/// Record an interconnect transfer on the source device's track: `bytes`
/// moved toward `dst` over `dur_us` of simulated time. Advances the source
/// track's clock by `dur_us` (the stream is busy sending). Called by the
/// fleet layer ([`crate::fleet`]) when it resolves a transfer command;
/// model code normally never calls this directly.
pub fn transfer(track: &str, dst: &str, name: &str, bytes: u64, dur_us: f64) {
    if !enabled() {
        return;
    }
    let mut r = lock();
    let ts_us = r.clock(track);
    r.events.push(TraceEvent {
        name: name.to_string(),
        cat: "transfer",
        track: track.to_string(),
        ts_us,
        kind: EventKind::Transfer {
            dur_us,
            bytes,
            dst: dst.to_string(),
        },
    });
    r.advance(track, dur_us);
}

/// Open a named region on `track`. Close it with [`end_span`]; its duration
/// is whatever simulated time launches/replays add while it is open. Spans
/// on different tracks nest independently.
pub fn begin_span(cat: &'static str, track: &str, name: &str) {
    if !enabled() {
        return;
    }
    let mut r = lock();
    let start_us = r.clock(track);
    r.open.push(OpenSpan {
        name: name.to_string(),
        cat,
        track: track.to_string(),
        start_us,
    });
}

/// Close the most recently opened span on `track`, recording it as a
/// duration event. Returns the span's simulated duration (0.0 when tracing
/// is disabled or no span is open on the track).
pub fn end_span(track: &str) -> f64 {
    if !enabled() {
        return 0.0;
    }
    let mut r = lock();
    let Some(pos) = r.open.iter().rposition(|s| s.track == track) else {
        return 0.0;
    };
    let span = r.open.remove(pos);
    let dur_us = r.clock(track) - span.start_us;
    r.events.push(TraceEvent {
        name: span.name,
        cat: span.cat,
        track: span.track,
        ts_us: span.start_us,
        kind: EventKind::Span { dur_us },
    });
    dur_us
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

/// A trace number (timestamp, duration, rate or ratio) with NaN/inf
/// clamped to 0 and rounded to six decimals. Six decimals: timestamps are
/// microseconds, and the validator re-derives per-track clocks from the
/// rounded values — coarser rounding would make back-to-back launches
/// appear to overlap by up to half an LSB.
fn finite6(v: f64) -> Json {
    Json::fixed(if v.is_finite() { v } else { 0.0 }, 6)
}

/// One trace event, fields in Chrome's order: `name`, `cat`, `ph`, `ts`,
/// `dur`, `pid`, `tid`, then `tail` (`args` or `s`); `None` fields are left
/// out.
fn event(
    name: &str,
    cat: Option<&str>,
    ph: &str,
    ts: Option<f64>,
    dur: Option<f64>,
    tid: usize,
    tail: (&str, Json),
) -> Json {
    let fields = [
        Some(("name", Json::from(name))),
        cat.map(|c| ("cat", Json::from(c))),
        Some(("ph", Json::from(ph))),
        ts.map(|t| ("ts", finite6(t))),
        dur.map(|d| ("dur", finite6(d))),
        Some(("pid", Json::from(0u64))),
        Some(("tid", Json::from(tid))),
        Some(tail),
    ];
    Json::obj(fields.into_iter().flatten())
}

/// A counter (`"ph":"C"`) sample with a single series.
fn counter_sample(name: &str, ts: f64, tid: usize, series: &str, value: Json) -> Json {
    let args = Json::obj([(series, value)]);
    event(name, None, "C", Some(ts), None, tid, ("args", args))
}

/// Serialize events to Chrome `trace_event` JSON (the "JSON Object Format":
/// a `traceEvents` array plus `displayTimeUnit`), compact. Tracks become
/// named threads of one `gpu-sim` process; launches/spans/replays are
/// complete (`"ph":"X"`) events, instants are `"ph":"i"`, and per-launch
/// occupancy and DRAM-bandwidth samples are synthesized as counter
/// (`"ph":"C"`) events. Open the result in `chrome://tracing` or Perfetto.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // Stable tid assignment by first appearance.
    let mut tids: Vec<&str> = Vec::new();
    for ev in events {
        if !tids.iter().any(|t| *t == ev.track) {
            tids.push(&ev.track);
        }
    }
    let tid_of = |track: &str| tids.iter().position(|t| *t == track).unwrap_or(0);
    let metadata = |kind: &str, tid: usize, name: &str| {
        let args = Json::obj([("name", Json::from(name))]);
        event(kind, None, "M", None, None, tid, ("args", args))
    };

    let mut out = vec![metadata("process_name", 0, "gpu-sim")];
    for (i, track) in tids.iter().enumerate() {
        out.push(metadata("thread_name", i, track));
    }
    for ev in events {
        let tid = tid_of(&ev.track);
        // A complete event spanning `dur` from the event's timestamp.
        let complete = |dur: f64, args: Json| {
            event(
                &ev.name,
                Some(ev.cat),
                "X",
                Some(ev.ts_us),
                Some(dur),
                tid,
                ("args", args),
            )
        };
        match &ev.kind {
            EventKind::Launch { stats, cached } => {
                let cached = match cached {
                    Some(true) => "hit",
                    Some(false) => "miss",
                    None => "none",
                };
                out.push(complete(
                    stats.time_us,
                    Json::obj([
                        ("blocks", Json::from(stats.blocks)),
                        ("waves", finite6(stats.waves)),
                        ("occupancy", finite6(stats.occupancy.fraction)),
                        ("balance", finite6(stats.balance)),
                        ("instructions", Json::from(stats.instructions)),
                        ("flops", Json::from(stats.flops)),
                        ("dram_bytes", Json::from(stats.dram_bytes)),
                        ("tflops", finite6(stats.tflops)),
                        ("dram_gbps", finite6(stats.dram_gbps)),
                        ("bound_by", Json::from(stats.bound_by.as_str())),
                        ("cache", Json::from(cached)),
                    ]),
                ));
                // Counter tracks: sample at launch start, return to zero at
                // launch end so the timeline shows per-launch steps.
                let end = ev.ts_us + stats.time_us;
                out.extend([
                    counter_sample(
                        "occupancy",
                        ev.ts_us,
                        tid,
                        "fraction",
                        finite6(stats.occupancy.fraction),
                    ),
                    counter_sample("dram_gbps", ev.ts_us, tid, "gbps", finite6(stats.dram_gbps)),
                    counter_sample("occupancy", end, tid, "fraction", Json::from(0u64)),
                    counter_sample("dram_gbps", end, tid, "gbps", Json::from(0u64)),
                ]);
            }
            EventKind::Span { dur_us } => out.push(complete(*dur_us, Json::Obj(vec![]))),
            EventKind::Replay { dur_us, count } => out.push(complete(
                *dur_us,
                Json::obj([("count", Json::from(*count))]),
            )),
            EventKind::Instant => out.push(event(
                &ev.name,
                Some(ev.cat),
                "i",
                Some(ev.ts_us),
                None,
                tid,
                ("s", Json::from("t")),
            )),
            EventKind::Counter { value } => out.push(event(
                &ev.name,
                Some(ev.cat),
                "C",
                Some(ev.ts_us),
                None,
                tid,
                ("args", Json::obj([("value", Json::from(*value))])),
            )),
            EventKind::Transfer { dur_us, bytes, dst } => {
                out.push(complete(
                    *dur_us,
                    Json::obj([
                        ("bytes", Json::from(*bytes)),
                        ("dst", Json::from(dst.as_str())),
                    ]),
                ));
                // Counter track: bytes in flight step up for the duration of
                // the transfer and drop back to zero when it completes.
                let bytes = Json::from(*bytes);
                out.extend([
                    counter_sample("interconnect_bytes", ev.ts_us, tid, "bytes", bytes),
                    counter_sample(
                        "interconnect_bytes",
                        ev.ts_us + dur_us,
                        tid,
                        "bytes",
                        Json::from(0u64),
                    ),
                ]);
            }
        }
    }
    Json::obj([
        ("displayTimeUnit", Json::from("ms")),
        ("traceEvents", Json::Arr(out)),
    ])
    .compact()
}

// ---------------------------------------------------------------------------
// Structural validation (used by tests and the trace_model CI gate)
// ---------------------------------------------------------------------------

/// Summary of a validated trace, returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCheck {
    pub events: usize,
    pub launches: usize,
    pub counters: usize,
    pub instants: usize,
    pub tracks: usize,
}

/// Structurally validate Chrome `trace_event` JSON: well-formed, non-empty,
/// every event carries the phase-appropriate fields, durations are
/// non-negative, and launch/replay timestamps are monotonically
/// non-decreasing per track (spans are recorded at close and may precede
/// earlier-timestamped events in the array; Chrome sorts on load).
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut check = TraceCheck {
        events: events.len(),
        ..Default::default()
    };
    let mut track_clock: HashMap<i64, f64> = HashMap::new();
    let mut tracks: Vec<i64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or(format!("event {i}: missing ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: bad ts {ts}"));
        }
        let tid = ev
            .get("tid")
            .and_then(Json::as_num)
            .ok_or(format!("event {i}: missing tid"))? as i64;
        if !tracks.contains(&tid) {
            tracks.push(tid);
        }
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or(format!("event {i}: X without dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i}: bad dur {dur}"));
                }
                let cat = ev.get("cat").and_then(Json::as_str).unwrap_or("");
                if cat == "launch" || cat == "replay" {
                    // Tolerance: ts and dur are serialized at 1e-6 precision,
                    // so the re-derived clock can disagree by ~1.5 LSB.
                    let clock = track_clock.entry(tid).or_insert(0.0);
                    if ts + 5e-6 < *clock {
                        return Err(format!(
                            "event {i}: non-monotonic ts {ts} < track clock {clock} on tid {tid}"
                        ));
                    }
                    *clock = ts + dur;
                    if cat == "launch" {
                        check.launches += 1;
                    }
                }
            }
            "C" => check.counters += 1,
            "i" => {
                check.instants += 1;
                if ev.get("s").and_then(Json::as_str).is_none() {
                    return Err(format!("event {i}: instant without scope"));
                }
            }
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        }
    }
    check.tracks = tracks.len();
    if check.launches == 0 {
        return Err("trace contains no launch events".into());
    }
    Ok(check)
}

// ---------------------------------------------------------------------------
// Profile report
// ---------------------------------------------------------------------------

/// One top-level span (model layer) with the launch work it covers.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub name: String,
    pub track: String,
    pub start_us: f64,
    pub dur_us: f64,
    /// Launches inside the layer, counting each replay repetition.
    pub launches: u64,
    pub flops: u64,
    pub dram_bytes: u64,
}

/// Aggregate of all launches (or replays) sharing a kernel name.
#[derive(Debug, Clone)]
pub struct KernelRow {
    pub name: String,
    pub launches: u64,
    pub time_us: f64,
    pub flops: u64,
    pub dram_bytes: u64,
    /// The most common binding pipeline across these launches.
    pub bound_by: String,
}

/// Aggregated view of a traced model run: per-layer rows (from top-level
/// spans, with synthetic rows for work outside any span, so the layer
/// column always sums to [`ProfileReport::total_us`]), a per-kernel table,
/// roofline attribution, and the slowest individual launches.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Total simulated time: every launch plus every replay, all tracks.
    pub total_us: f64,
    pub layers: Vec<LayerRow>,
    pub kernels: Vec<KernelRow>,
    /// (kernel, time_us) of the slowest individual launches, descending.
    pub top: Vec<(String, f64)>,
    /// Simulated time attributed to each binding pipeline, descending.
    pub bound_by: Vec<(String, f64)>,
}

impl ProfileReport {
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut report = ProfileReport::default();

        // Work items: launches and replays, with (track, ts, dur, ...).
        struct Work<'a> {
            ev: &'a TraceEvent,
            count: u64,
            flops: u64,
            dram_bytes: u64,
        }
        let work: Vec<Work<'_>> = events
            .iter()
            .filter_map(|ev| match &ev.kind {
                EventKind::Launch { stats, .. } => Some(Work {
                    ev,
                    count: 1,
                    flops: stats.flops,
                    dram_bytes: stats.dram_bytes,
                }),
                EventKind::Replay { count, .. } => Some(Work {
                    ev,
                    count: *count,
                    flops: 0,
                    dram_bytes: 0,
                }),
                _ => None,
            })
            .collect();
        report.total_us = work.iter().map(|w| w.ev.dur_us()).sum();

        // Top-level spans: not contained in a larger span on the same track.
        let spans: Vec<&TraceEvent> = events
            .iter()
            .filter(|ev| matches!(ev.kind, EventKind::Span { .. }))
            .collect();
        let contains = |outer: &TraceEvent, inner: &TraceEvent| {
            outer.track == inner.track
                && outer.ts_us <= inner.ts_us + 1e-9
                && outer.ts_us + outer.dur_us() + 1e-9 >= inner.ts_us + inner.dur_us()
                && outer.dur_us() > inner.dur_us() + 1e-9
        };
        let top_level: Vec<&TraceEvent> = spans
            .iter()
            .filter(|s| !spans.iter().any(|o| contains(o, s)))
            .copied()
            .collect();

        let covered = |w: &Work<'_>, span: &TraceEvent| {
            span.track == w.ev.track
                && w.ev.ts_us + 1e-9 >= span.ts_us
                && w.ev.ts_us + 1e-9 < span.ts_us + span.dur_us()
        };
        for span in &top_level {
            let mut row = LayerRow {
                name: span.name.clone(),
                track: span.track.clone(),
                start_us: span.ts_us,
                dur_us: span.dur_us(),
                launches: 0,
                flops: 0,
                dram_bytes: 0,
            };
            for w in work.iter().filter(|w| covered(w, span)) {
                row.launches += w.count;
                row.flops += w.flops;
                row.dram_bytes += w.dram_bytes;
            }
            report.layers.push(row);
        }
        // Work outside every top-level span becomes its own synthetic row,
        // so Σ layer durations == total_us by construction.
        for w in &work {
            if !top_level.iter().any(|s| covered(w, s)) {
                report.layers.push(LayerRow {
                    name: format!("({})", w.ev.name),
                    track: w.ev.track.clone(),
                    start_us: w.ev.ts_us,
                    dur_us: w.ev.dur_us(),
                    launches: w.count,
                    flops: w.flops,
                    dram_bytes: w.dram_bytes,
                });
            }
        }
        report.layers.sort_by(|a, b| {
            a.track.cmp(&b.track).then(
                a.start_us
                    .partial_cmp(&b.start_us)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });

        // Per-kernel aggregation (replays keyed by their event name).
        let mut kernel_index: HashMap<&str, usize> = HashMap::new();
        let mut bound_votes: Vec<HashMap<String, f64>> = Vec::new();
        for w in &work {
            let name = w.ev.name.as_str();
            let next = report.kernels.len();
            let slot = *kernel_index.entry(name).or_insert(next);
            if slot == next {
                report.kernels.push(KernelRow {
                    name: name.to_string(),
                    launches: 0,
                    time_us: 0.0,
                    flops: 0,
                    dram_bytes: 0,
                    bound_by: String::new(),
                });
                bound_votes.push(HashMap::new());
            }
            let row = &mut report.kernels[slot];
            row.launches += w.count;
            row.time_us += w.ev.dur_us();
            row.flops += w.flops;
            row.dram_bytes += w.dram_bytes;
            if let EventKind::Launch { stats, .. } = &w.ev.kind {
                *bound_votes[slot]
                    .entry(stats.bound_by.clone())
                    .or_insert(0.0) += stats.time_us;
                match report
                    .bound_by
                    .iter_mut()
                    .find(|(b, _)| *b == stats.bound_by)
                {
                    Some((_, t)) => *t += stats.time_us,
                    None => report
                        .bound_by
                        .push((stats.bound_by.clone(), stats.time_us)),
                }
            }
        }
        for (row, votes) in report.kernels.iter_mut().zip(&bound_votes) {
            row.bound_by = votes
                .iter()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(b, _)| b.clone())
                .unwrap_or_default();
        }
        report.kernels.sort_by(|a, b| {
            b.time_us
                .partial_cmp(&a.time_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        report
            .bound_by
            .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

        // Slowest individual launches.
        let mut top: Vec<(String, f64)> = events
            .iter()
            .filter_map(|ev| match &ev.kind {
                EventKind::Launch { stats, .. } => Some((stats.kernel.clone(), stats.time_us)),
                _ => None,
            })
            .collect();
        top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        top.truncate(5);
        report.top = top;
        report
    }

    /// Signed drift between the per-layer rows and [`ProfileReport::total_us`]:
    /// `Σ layers[i].dur_us - total_us`. Zero (up to rounding) whenever the
    /// report is internally consistent — every simulated microsecond either
    /// falls inside a top-level span or gets a synthetic row.
    pub fn layer_sum_drift_us(&self) -> f64 {
        self.layers.iter().map(|l| l.dur_us).sum::<f64>() - self.total_us
    }

    /// The layer-sum invariant as a checked result, for gates alongside
    /// [`validate_chrome_trace`]: the per-layer breakdown must account for
    /// every simulated microsecond of launch and replay work. A model that
    /// opens a span and attributes work to it by multiplication (instead of
    /// tracing the launches/replays inside it) shows up here as drift.
    pub fn check(&self) -> Result<(), String> {
        let drift = self.layer_sum_drift_us();
        let tol = 1e-6 * self.total_us.max(1.0);
        if drift.abs() > tol {
            return Err(format!(
                "per-layer rows sum to {:.6} us but the trace total is {:.6} us \
                 (drift {drift:+.6} us)",
                self.total_us + drift,
                self.total_us
            ));
        }
        Ok(())
    }

    /// Render the report as a plain-text table block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile report — {:.1} us simulated total\n",
            self.total_us
        ));
        out.push_str("\n  per-layer (top-level spans):\n");
        for l in &self.layers {
            out.push_str(&format!(
                "    {:<32} {:>12.1} us  {:>6} launches  {:>9.2} GFLOP  {:>8.1} MB\n",
                l.name,
                l.dur_us,
                l.launches,
                l.flops as f64 / 1e9,
                l.dram_bytes as f64 / 1e6,
            ));
        }
        out.push_str("\n  per-kernel:\n");
        for k in &self.kernels {
            out.push_str(&format!(
                "    {:<44} {:>12.1} us  {:>6} launches  bound by {}\n",
                k.name, k.time_us, k.launches, k.bound_by,
            ));
        }
        out.push_str("\n  roofline attribution:\n");
        for (b, t) in &self.bound_by {
            let pct = if self.total_us > 0.0 {
                100.0 * t / self.total_us
            } else {
                0.0
            };
            out.push_str(&format!("    {b:<10} {t:>12.1} us  ({pct:.1}%)\n"));
        }
        out.push_str("\n  slowest launches:\n");
        for (name, us) in &self.top {
            out.push_str(&format!("    {name:<44} {us:>12.1} us\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{AccessPattern, BufferSpec};
    use crate::cost::{BlockContext, BufferId};
    use crate::device::DeviceConfig;
    use crate::dim::Dim3;
    use crate::kernel::Kernel;
    use crate::launch::Gpu;
    use std::sync::Mutex as TestMutex;

    /// The recorder is process-global; tests that enable/disable it must not
    /// overlap each other (launches from *other* tests land on other tracks
    /// and are filtered out, but a concurrent disable would drop events).
    static TEST_LOCK: TestMutex<()> = TestMutex::new(());

    struct Tiny;

    impl Kernel for Tiny {
        fn name(&self) -> String {
            "trace_tiny".into()
        }
        fn grid(&self) -> Dim3 {
            Dim3::x(4)
        }
        fn block_dim(&self) -> Dim3 {
            Dim3::x(128)
        }
        fn buffers(&self) -> Vec<BufferSpec> {
            vec![BufferSpec {
                id: BufferId(0),
                name: "x",
                footprint_bytes: 4096,
                pattern: AccessPattern::Streaming,
            }]
        }
        fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
            ctx.fma(64, 32 * 64);
            ctx.ld_global(BufferId(0), 0, 32, 1, 4);
        }
    }

    fn test_gpu(name: &str) -> Gpu {
        let mut dev = DeviceConfig::v100();
        dev.name = name.to_string();
        Gpu::new(dev)
    }

    #[test]
    fn records_launches_and_spans_with_advancing_clock() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        let track = "trace-test-clock";
        let gpu = test_gpu(track);
        begin_span("layer", track, "layer0");
        let a = gpu.profile(&Tiny);
        let b = gpu.profile(&Tiny);
        let span_dur = end_span(track);
        replay(track, "layer0 xN", 3.0 * (a.time_us + b.time_us), 3);
        let events: Vec<TraceEvent> = disable().into_iter().filter(|e| e.track == track).collect();

        let launches: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Launch { .. }))
            .collect();
        assert_eq!(launches.len(), 2);
        assert_eq!(launches[0].ts_us, 0.0, "track clock starts at zero");
        assert!(
            (launches[1].ts_us - a.time_us).abs() < 1e-12,
            "second launch starts when the first ends"
        );
        assert!(
            (span_dur - (a.time_us + b.time_us)).abs() < 1e-9,
            "span duration is the simulated time elapsed while open"
        );
        let replay_ev = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Replay { .. }))
            .expect("replay recorded");
        assert!((replay_ev.ts_us - (a.time_us + b.time_us)).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = disable();
        assert!(!enabled());
        let track = "trace-test-disabled";
        let gpu = test_gpu(track);
        gpu.profile(&Tiny);
        begin_span("layer", track, "ignored");
        assert_eq!(end_span(track), 0.0);
        enable();
        let events = disable();
        assert!(
            !events.iter().any(|e| e.track == track),
            "nothing recorded while disabled"
        );
    }

    #[test]
    fn chrome_export_is_schema_valid_and_monotonic() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        let track = "trace-test-chrome";
        let gpu = test_gpu(track);
        begin_span("layer", track, "l\"ayer\n0"); // escaping exercised
        gpu.profile(&Tiny);
        gpu.profile(&Tiny);
        end_span(track);
        instant("cache", track, "miss: trace_tiny");
        let events: Vec<TraceEvent> = disable().into_iter().filter(|e| e.track == track).collect();
        let json = chrome_trace_json(&events);
        let check = validate_chrome_trace(&json).expect("structurally valid trace");
        assert_eq!(check.launches, 2);
        assert_eq!(check.instants, 1);
        assert_eq!(check.tracks, 1);
        assert!(check.counters >= 4, "occupancy + dram counters synthesized");
    }

    #[test]
    fn transfer_events_advance_clock_and_export_counters() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        let track = "trace-test-xfer";
        let gpu = test_gpu(track);
        gpu.profile(&Tiny);
        let before = clock(track);
        transfer(track, "dev1", "shard -> dev1", 1 << 20, 12.5);
        assert!(
            (clock(track) - (before + 12.5)).abs() < 1e-9,
            "transfer occupies the source track"
        );
        gpu.profile(&Tiny);
        let events: Vec<TraceEvent> = disable().into_iter().filter(|e| e.track == track).collect();
        let xfer = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Transfer { .. }))
            .expect("transfer recorded");
        assert!((xfer.ts_us - before).abs() < 1e-9);
        assert!((xfer.dur_us() - 12.5).abs() < 1e-12);

        let json = chrome_trace_json(&events);
        let check = validate_chrome_trace(&json).expect("transfer traces stay schema-valid");
        assert_eq!(check.launches, 2);
        assert!(
            json.contains("interconnect_bytes"),
            "bytes-in-flight counter track synthesized"
        );
        assert!(
            check.counters >= 2 * 4 + 2,
            "launch + interconnect counters"
        );
    }

    #[test]
    fn counter_events_export_as_counter_phase() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        let track = "trace-test-counter";
        let gpu = test_gpu(track);
        gpu.profile(&Tiny);
        counter("joint", track, "joint_tiles_skipped", 42);
        counter("joint", track, "joint_tiles_total", 64);
        let events: Vec<TraceEvent> = disable().into_iter().filter(|e| e.track == track).collect();
        let skipped = events
            .iter()
            .find(|e| e.name == "joint_tiles_skipped")
            .expect("counter recorded");
        assert!(matches!(skipped.kind, EventKind::Counter { value: 42 }));
        assert_eq!(skipped.dur_us(), 0.0, "counters do not occupy the track");
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"name\":\"joint_tiles_total\",\"cat\":\"joint\",\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"value\":64}"));
        let check = validate_chrome_trace(&json).expect("counter traces stay schema-valid");
        // 4 synthesized launch counters + the 2 explicit ones.
        assert!(check.counters >= 6);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        // Well-formed JSON, but an X event without a duration.
        let bad = "{\"traceEvents\":[{\"name\":\"k\",\"ph\":\"X\",\"ts\":0,\
                    \"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // Launch events running backwards on one track.
        let backwards = "{\"traceEvents\":[\
            {\"name\":\"a\",\"cat\":\"launch\",\"ph\":\"X\",\"ts\":100,\"dur\":50,\"pid\":0,\"tid\":0},\
            {\"name\":\"b\",\"cat\":\"launch\",\"ph\":\"X\",\"ts\":10,\"dur\":5,\"pid\":0,\"tid\":0}\
        ]}";
        assert!(validate_chrome_trace(backwards)
            .expect_err("must reject")
            .contains("non-monotonic"));
    }

    /// Per-layer rows must sum to the total, with uncovered work surfaced
    /// as synthetic rows — the invariant the dnn profile report rides on.
    #[test]
    fn profile_report_layers_sum_to_total() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable();
        let track = "trace-test-report";
        let gpu = test_gpu(track);
        begin_span("layer", track, "stem");
        gpu.profile(&Tiny);
        end_span(track);
        begin_span("layer", track, "body");
        gpu.profile(&Tiny);
        gpu.profile(&Tiny);
        end_span(track);
        gpu.profile(&Tiny); // outside any span
        let events: Vec<TraceEvent> = disable().into_iter().filter(|e| e.track == track).collect();
        let report = ProfileReport::from_events(&events);
        assert_eq!(report.layers.len(), 3, "stem, body, one synthetic row");
        let layer_sum: f64 = report.layers.iter().map(|l| l.dur_us).sum();
        assert!(
            (layer_sum - report.total_us).abs() <= 1e-9 * report.total_us.max(1.0),
            "layer durations {layer_sum} must sum to total {}",
            report.total_us
        );
        report.check().expect("sum invariant holds");
        assert!(report.layer_sum_drift_us().abs() <= 1e-9 * report.total_us.max(1.0));
        let body = report
            .layers
            .iter()
            .find(|l| l.name == "body")
            .expect("body layer");
        assert_eq!(body.launches, 2);
        assert!(report.kernels.iter().any(|k| k.name == "trace_tiny"));
        assert!(!report.top.is_empty());
        assert!(!report.render().is_empty());
    }

    /// A doctored report whose layer rows no longer cover the total must
    /// fail the sum-invariant check.
    #[test]
    fn report_check_rejects_drift() {
        let mut report = ProfileReport {
            total_us: 100.0,
            ..Default::default()
        };
        report.layers.push(LayerRow {
            name: "layer0".into(),
            track: "t".into(),
            start_us: 0.0,
            dur_us: 60.0,
            launches: 1,
            flops: 0,
            dram_bytes: 0,
        });
        let err = report.check().expect_err("40 us unaccounted");
        assert!(err.contains("drift"), "{err}");
        assert!((report.layer_sum_drift_us() - (-40.0)).abs() < 1e-9);
    }
}
