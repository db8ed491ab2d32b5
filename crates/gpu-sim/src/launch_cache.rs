//! Cross-launch memoization of simulated launch statistics.
//!
//! The evaluation sweeps (dataset benchmarks, autotuning grids, the dispatch
//! ladder) re-simulate the same kernel on the same operands over and over.
//! [`LaunchCache`] memoizes [`LaunchStats`] across launches, keyed by the
//! kernel name (which encodes the configuration tag), a caller-supplied
//! operand fingerprint, and the device name.
//! Only the launch funnel reads or writes it: a [`Gpu::run`](crate::Gpu::run)
//! request that names the cache in [`Launch::cache`](crate::Launch::cache).
//!
//! ## What the key must cover
//!
//! Simulated statistics depend on the kernel's *cost trace*, which is a
//! function of the launch configuration and the operand **structure** —
//! shapes, sparsity topology, alignment — but not of the floating-point
//! values flowing through it. The kernel name covers the configuration; the
//! device name covers the hardware model; the `fingerprint` must cover
//! everything else the trace reads: the sparse topology (row offsets, column
//! indices) *and* any problem dimension not implied by it (e.g. SpMM's dense
//! column count `n`, which the kernel name does not encode).
//!
//! ## Capacity and eviction
//!
//! Dataset sweeps can touch tens of thousands of distinct keys; an unbounded
//! memo table would grow with the corpus. The cache holds at most
//! `capacity` entries ([`LaunchCache::with_capacity`]; the default is
//! [`DEFAULT_CAPACITY`]). When an insert would exceed it, the
//! least-recently-used *half* of the entries is evicted in one generation
//! sweep — amortized O(1) per insert, no per-lookup bookkeeping beyond a
//! recency tick — and the [`LaunchCache::evictions`] counter records the
//! drops (also surfaced on [`crate::LaunchSummary`]).
//!
//! ## Functional launches
//!
//! A cache hit on a functional launch still has to produce outputs. The
//! launcher re-executes every block with a cost-recording-disabled context
//! ([`BlockContext::replay`](crate::cost::BlockContext::replay)), skipping
//! the sector/conflict arithmetic while the kernel writes its results, and
//! returns the cached statistics.
//!
//! ## When the cache is bypassed
//!
//! Launches on a [`Gpu`](crate::Gpu) carrying a fault plan bypass the cache
//! entirely (no lookup, no insert): fault schedules consume per-launch
//! indices and may poison outputs, so serving them from a cache would both
//! skip scheduled faults and desynchronize the schedule.

use crate::launch::LaunchStats;
use crate::sanitizer::SanitizerReport;
use crate::{metrics, trace};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default entry capacity: comfortably above any single sweep's working set
/// (the full-grid `simwall` run populates a few hundred keys) while bounding
/// a corpus-scale sweep's memory.
pub const DEFAULT_CAPACITY: usize = 8192;

/// Cache key: (kernel name incl. config tag, operand fingerprint, device
/// name, device architecture).
///
/// The `arch` field is the structural hash of every architectural field of
/// the device config ([`crate::DeviceConfig::arch_fingerprint`]). The name
/// alone is not an identity: a heterogeneous fleet can legitimately hold two
/// devices with the same marketing name but different resources (a stock
/// V100 next to a cut-down one), and simulated statistics depend on the
/// resources, not the label. With `arch` in the key, replay can never
/// cross-pollinate between device profiles.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct LaunchKey {
    pub(crate) kernel: String,
    pub(crate) fingerprint: u64,
    pub(crate) device: String,
    pub(crate) arch: u64,
}

#[derive(Debug)]
struct Entry {
    stats: LaunchStats,
    /// The sanitizer report from a prior sanitized run of this exact
    /// (kernel, fingerprint, device) launch, if one happened. The sanitizer
    /// checks the cost trace, which the key fully determines — so a
    /// fingerprint-identical launch needs no re-sanitizing.
    sanitized: Option<SanitizerReport>,
    /// Recency tick of the last lookup hit or insert.
    last_used: u64,
}

/// A thread-safe, capacity-bounded memo table of simulated launch statistics.
///
/// Shared by `&` reference (interior mutability), so one cache can serve an
/// entire benchmark sweep or a whole dispatch ladder without plumbing `&mut`
/// through every call site.
#[derive(Debug)]
pub struct LaunchCache {
    entries: Mutex<HashMap<LaunchKey, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    tick: AtomicU64,
    capacity: usize,
}

impl Default for LaunchCache {
    fn default() -> Self {
        Self::new()
    }
}

impl LaunchCache {
    /// A cache with the [`DEFAULT_CAPACITY`] entry bound.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache bounded to `capacity` entries (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, HashMap<LaunchKey, Entry>> {
        // A poisoned mutex only means another thread panicked mid-insert;
        // the map itself is still a valid memo table.
        match self.entries.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up a key, counting the hit or miss and refreshing the entry's
    /// recency on a hit.
    pub(crate) fn lookup(&self, key: &LaunchKey) -> Option<LaunchStats> {
        let tick = self.next_tick();
        let found = {
            let mut map = self.entries();
            map.get_mut(key).map(|e| {
                e.last_used = tick;
                e.stats.clone()
            })
        };
        match found {
            Some(stats) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                metrics::global().incr("cache_hits", 1);
                if trace::enabled() {
                    trace::instant("cache", &key.device, &format!("hit: {}", key.kernel));
                }
                Some(stats)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                metrics::global().incr("cache_misses", 1);
                if trace::enabled() {
                    trace::instant("cache", &key.device, &format!("miss: {}", key.kernel));
                }
                None
            }
        }
    }

    /// Record freshly simulated statistics under a key, evicting the
    /// least-recently-used half of the table first when it is full. A prior
    /// sanitizer report stored under the same key survives the overwrite
    /// (the key determines the trace, so the report stays valid).
    pub(crate) fn insert(&self, key: LaunchKey, stats: LaunchStats) {
        self.insert_entry(key, stats, None);
    }

    /// Record a sanitized launch: the statistics plus the sanitizer report,
    /// so fingerprint-identical launches can skip re-sanitizing entirely
    /// (served by [`LaunchCache::lookup_sanitized`]).
    pub(crate) fn insert_sanitized(
        &self,
        key: LaunchKey,
        stats: LaunchStats,
        report: SanitizerReport,
    ) {
        self.insert_entry(key, stats, Some(report));
    }

    fn insert_entry(&self, key: LaunchKey, stats: LaunchStats, sanitized: Option<SanitizerReport>) {
        let tick = self.next_tick();
        let mut map = self.entries();
        if map.len() >= self.capacity && !map.contains_key(&key) {
            let mut ticks: Vec<u64> = map.values().map(|e| e.last_used).collect();
            ticks.sort_unstable();
            // Ticks are unique (fetch_add), so retaining strictly-newer
            // than the median drops ceil(len/2) entries in one sweep.
            let cutoff = ticks[(ticks.len() - 1) / 2];
            let before = map.len();
            map.retain(|_, e| e.last_used > cutoff);
            let evicted = (before - map.len()) as u64;
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            metrics::global().incr("cache_evictions", evicted);
        }
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                entry.stats = stats;
                entry.last_used = tick;
                if sanitized.is_some() {
                    entry.sanitized = sanitized;
                }
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Entry {
                    stats,
                    sanitized,
                    last_used: tick,
                });
            }
        }
        metrics::global().incr("cache_inserts", 1);
    }

    /// Look up a key that was previously [`LaunchCache::insert_sanitized`]:
    /// returns the cached statistics *and* the sanitizer report. An entry
    /// that was only ever plain-inserted is a miss — its launch was never
    /// sanitized, so there is no report to replay.
    pub(crate) fn lookup_sanitized(
        &self,
        key: &LaunchKey,
    ) -> Option<(LaunchStats, SanitizerReport)> {
        let tick = self.next_tick();
        let found = {
            let mut map = self.entries();
            map.get_mut(key).and_then(|e| {
                let report = e.sanitized.clone()?;
                e.last_used = tick;
                Some((e.stats.clone(), report))
            })
        };
        match found {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                metrics::global().incr("cache_hits", 1);
                if trace::enabled() {
                    trace::instant(
                        "cache",
                        &key.device,
                        &format!("sanitized hit: {}", key.kernel),
                    );
                }
                Some(hit)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                metrics::global().incr("cache_misses", 1);
                None
            }
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by capacity eviction since creation (or the last
    /// [`LaunchCache::clear`]).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The entry bound this cache evicts down to.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.entries().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Drop all entries and reset the counters.
    pub fn clear(&self) {
        self.entries().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::LaunchStats;

    fn dummy_stats(us: f64) -> LaunchStats {
        LaunchStats {
            kernel: "k".into(),
            time_us: us,
            makespan_cycles: 0.0,
            blocks: 1,
            waves: 1.0,
            balance: 1.0,
            occupancy: crate::occupancy::occupancy(
                &crate::device::DeviceConfig::v100(),
                &crate::occupancy::BlockRequirements {
                    threads: 32,
                    smem_bytes: 0,
                    regs_per_thread: 32,
                },
            ),
            instructions: 1,
            flops: 2,
            dram_bytes: 3,
            tflops: 0.0,
            frac_peak: 0.0,
            dram_gbps: 0.0,
            bound_by: "dram".into(),
            pipelines: Default::default(),
        }
    }

    fn key(fp: u64) -> LaunchKey {
        LaunchKey {
            kernel: "k".into(),
            fingerprint: fp,
            device: "V100".into(),
            arch: 0xA4C4,
        }
    }

    #[test]
    fn hit_and_miss_counters() {
        let cache = LaunchCache::new();
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(key(1), dummy_stats(10.0));
        let hit = cache.lookup(&key(1)).expect("inserted");
        assert_eq!(hit.time_us, 10.0);
        assert!(cache.lookup(&key(2)).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_distinguish_all_components() {
        let cache = LaunchCache::new();
        cache.insert(key(1), dummy_stats(1.0));
        let mut other_kernel = key(1);
        other_kernel.kernel = "k2".into();
        let mut other_dev = key(1);
        other_dev.device = "A100".into();
        let mut other_arch = key(1);
        other_arch.arch = 0xBEEF;
        assert!(cache.lookup(&other_kernel).is_none());
        assert!(cache.lookup(&other_dev).is_none());
        assert!(cache.lookup(&other_arch).is_none());
        assert!(cache.lookup(&key(2)).is_none());
        assert!(cache.lookup(&key(1)).is_some());
    }

    /// Regression (heterogeneous-fleet cross-pollination): two device models
    /// sharing a marketing name but differing in resources must never serve
    /// each other's cached statistics. Before `arch` joined the key, the
    /// second device below would hit the first's entry.
    #[test]
    fn same_name_different_arch_never_cross_pollinates() {
        use crate::device::DeviceConfig;
        let stock = DeviceConfig::v100();
        let mut cut_down = DeviceConfig::v100();
        cut_down.num_sms = 40;
        assert_eq!(stock.name, cut_down.name);

        let cache = LaunchCache::new();
        let stock_key = LaunchKey {
            kernel: "k".into(),
            fingerprint: 7,
            device: stock.name.clone(),
            arch: stock.arch_fingerprint(),
        };
        let cut_key = LaunchKey {
            kernel: "k".into(),
            fingerprint: 7,
            device: cut_down.name.clone(),
            arch: cut_down.arch_fingerprint(),
        };
        cache.insert(stock_key.clone(), dummy_stats(10.0));
        assert!(
            cache.lookup(&cut_key).is_none(),
            "cut-down device must not see the stock device's entry"
        );
        cache.insert(cut_key.clone(), dummy_stats(20.0));
        let stock_hit = cache.lookup(&stock_key).expect("stock entry intact");
        let cut_hit = cache.lookup(&cut_key).expect("cut-down entry present");
        assert_eq!(stock_hit.time_us, 10.0);
        assert_eq!(cut_hit.time_us, 20.0);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = LaunchCache::with_capacity(1);
        cache.insert(key(1), dummy_stats(1.0));
        cache.insert(key(2), dummy_stats(1.0)); // evicts key 1
        let _ = cache.lookup(&key(2));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.evictions(), 0);
    }

    /// Regression (unbounded growth): a 10k-distinct-key sweep must hold the
    /// table at its capacity, counting every drop.
    #[test]
    fn ten_thousand_key_sweep_is_capacity_bounded() {
        let cache = LaunchCache::with_capacity(256);
        for fp in 0..10_000 {
            cache.insert(key(fp), dummy_stats(fp as f64));
        }
        assert!(
            cache.len() <= 256,
            "cache grew past capacity: {} entries",
            cache.len()
        );
        assert!(!cache.is_empty());
        // Everything inserted beyond what the table retains was evicted.
        assert_eq!(cache.evictions(), 10_000 - cache.len() as u64);
        // The survivors are the most recent generation.
        assert!(cache.lookup(&key(9_999)).is_some());
        assert!(cache.lookup(&key(0)).is_none());
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        let cache = LaunchCache::with_capacity(4);
        for fp in 0..4 {
            cache.insert(key(fp), dummy_stats(1.0));
        }
        // Touch 0 and 1 so 2 and 3 become the LRU half.
        assert!(cache.lookup(&key(0)).is_some());
        assert!(cache.lookup(&key(1)).is_some());
        cache.insert(key(4), dummy_stats(1.0));
        assert_eq!(cache.evictions(), 2);
        assert!(cache.lookup(&key(0)).is_some(), "recently used survives");
        assert!(cache.lookup(&key(1)).is_some(), "recently used survives");
        assert!(cache.lookup(&key(2)).is_none(), "LRU half evicted");
        assert!(cache.lookup(&key(3)).is_none(), "LRU half evicted");
        assert!(cache.lookup(&key(4)).is_some(), "new entry present");
    }

    #[test]
    fn reinserting_existing_key_never_evicts() {
        let cache = LaunchCache::with_capacity(2);
        cache.insert(key(1), dummy_stats(1.0));
        cache.insert(key(2), dummy_stats(2.0));
        cache.insert(key(1), dummy_stats(3.0)); // overwrite, table full
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 2);
        let got = cache.lookup(&key(1)).expect("overwritten entry");
        assert_eq!(got.time_us, 3.0);
    }
}
