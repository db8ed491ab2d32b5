//! Deterministic fault injection for kernel launches.
//!
//! Production sparse kernels must survive transient device faults — ECC
//! errors, launch timeouts, and silent data corruption. This module provides
//! a seedable [`FaultPlan`] that decides, per launch, whether the launch
//! fails and how. The launcher consults the plan inside
//! [`Gpu::run`](crate::Gpu::run) (for every unsanitized launch): *loud* faults
//! ([`FaultKind::EccError`], [`FaultKind::LaunchTimeout`]) abort the launch
//! with a [`DeviceFault`], while the *silent* [`FaultKind::PoisonOutput`]
//! lets the launch complete but corrupts the functional output with
//! non-finite values via [`Kernel::poison_output`](crate::Kernel), so
//! detection guards downstream can be exercised.
//!
//! Decisions are a pure function of `(seed, launch index)` so any failing
//! schedule can be replayed exactly.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// An uncorrectable memory error: the launch aborts with an error.
    EccError,
    /// The launch exceeds its time budget and is killed.
    LaunchTimeout,
    /// The launch "succeeds" but its output is corrupted with NaN/Inf —
    /// only detectable by inspecting the results.
    PoisonOutput,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::EccError => write!(f, "uncorrectable ECC error"),
            FaultKind::LaunchTimeout => write!(f, "launch timeout"),
            FaultKind::PoisonOutput => write!(f, "poisoned output"),
        }
    }
}

/// A fault that fired on a specific launch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceFault {
    pub kind: FaultKind,
    /// Name of the kernel whose launch faulted.
    pub kernel: String,
    /// Zero-based index of the launch within the plan's lifetime.
    pub launch_index: u64,
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on launch #{} of '{}'",
            self.kind, self.launch_index, self.kernel
        )
    }
}

impl std::error::Error for DeviceFault {}

/// When a plan injects faults.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Never fault (the empty plan).
    Never,
    /// Fault every matching launch.
    Always,
    /// Fault the first `n` matching launches, then behave normally.
    FirstN(u64),
    /// Fault each matching launch independently with this probability.
    Rate(f64),
}

/// A deterministic, seedable schedule of injected launch faults.
///
/// The plan counts every launch it observes; whether a given launch faults
/// is a pure function of the seed and that counter, optionally restricted to
/// kernels whose name contains a substring (so e.g. only `"sputnik"` kernels
/// fail while fallback kernels survive).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    mode: Mode,
    kind: FaultKind,
    /// Only launches of kernels whose name contains this substring fault.
    kernel_filter: Option<String>,
    /// Launches observed so far (matching or not: the index identifies the
    /// launch within the run, not within the filtered subset).
    launches: AtomicU64,
    /// Faults injected so far.
    injected: AtomicU64,
}

impl FaultPlan {
    fn with_mode(seed: u64, mode: Mode, kind: FaultKind) -> Self {
        Self {
            seed,
            mode,
            kind,
            kernel_filter: None,
            launches: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// The empty plan: observes launches but never faults.
    pub fn none() -> Self {
        Self::with_mode(0, Mode::Never, FaultKind::EccError)
    }

    /// Fault every matching launch with `kind`.
    pub fn fail_all(kind: FaultKind) -> Self {
        Self::with_mode(0, Mode::Always, kind)
    }

    /// Fault the first `n` matching launches, then recover.
    pub fn fail_first(n: u64, kind: FaultKind) -> Self {
        Self::with_mode(0, Mode::FirstN(n), kind)
    }

    /// Fault each matching launch independently with probability `rate`,
    /// deterministically derived from `seed` and the launch index.
    pub fn with_rate(seed: u64, rate: f64, kind: FaultKind) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        Self::with_mode(seed, Mode::Rate(rate), kind)
    }

    /// Restrict the plan to kernels whose name contains `pattern`.
    pub fn matching(mut self, pattern: impl Into<String>) -> Self {
        self.kernel_filter = Some(pattern.into());
        self
    }

    /// True when this plan can never fault a launch.
    pub fn is_empty(&self) -> bool {
        matches!(self.mode, Mode::Never)
    }

    /// Launches observed so far.
    pub fn launches_observed(&self) -> u64 {
        self.launches.load(Ordering::Relaxed)
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Deterministic per-launch hash in [0, 1).
    fn launch_hash(&self, index: u64) -> f64 {
        let mut z = self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Record one launch of `kernel` and decide whether it faults.
    /// Returns the fault to inject, if any.
    pub fn decide(&self, kernel: &str) -> Option<DeviceFault> {
        let index = self.launches.fetch_add(1, Ordering::Relaxed);
        if let Some(pat) = &self.kernel_filter {
            if !kernel.contains(pat.as_str()) {
                return None;
            }
        }
        let fire = match self.mode {
            Mode::Never => false,
            Mode::Always => true,
            Mode::FirstN(n) => self.injected.load(Ordering::Relaxed) < n,
            Mode::Rate(rate) => self.launch_hash(index) < rate,
        };
        if !fire {
            return None;
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        let fault = DeviceFault {
            kind: self.kind,
            kernel: kernel.to_string(),
            launch_index: index,
        };
        crate::metrics::global().incr("faults_injected", 1);
        if crate::trace::enabled() {
            crate::trace::instant("fault", "faults", &fault.to_string());
        }
        Some(fault)
    }

    /// A deterministic seed for poisoning the faulted launch's output.
    pub fn poison_seed(&self, fault: &DeviceFault) -> u64 {
        self.seed ^ fault.launch_index.wrapping_mul(0xA076_1D64_78BD_642F)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        for _ in 0..100 {
            assert!(plan.decide("sputnik_spmm_f32").is_none());
        }
        assert_eq!(plan.launches_observed(), 100);
        assert_eq!(plan.faults_injected(), 0);
    }

    #[test]
    fn fail_all_fires_every_launch() {
        let plan = FaultPlan::fail_all(FaultKind::EccError);
        for i in 0..10 {
            let f = plan.decide("k").expect("must fire");
            assert_eq!(f.launch_index, i);
            assert_eq!(f.kind, FaultKind::EccError);
        }
    }

    #[test]
    fn fail_first_recovers() {
        let plan = FaultPlan::fail_first(3, FaultKind::LaunchTimeout);
        let fired: Vec<bool> = (0..10).map(|_| plan.decide("k").is_some()).collect();
        assert_eq!(fired.iter().filter(|&&b| b).count(), 3);
        assert!(fired[..3].iter().all(|&b| b), "first three launches fault");
        assert!(fired[3..].iter().all(|&b| !b), "later launches recover");
    }

    #[test]
    fn filter_spares_other_kernels() {
        let plan = FaultPlan::fail_all(FaultKind::EccError).matching("sputnik");
        assert!(plan.decide("sputnik_spmm_f32_y4").is_some());
        assert!(plan.decide("fallback_spmm_f32").is_none());
        assert!(plan.decide("sputnik_sddmm_f16_x32").is_some());
    }

    #[test]
    fn rate_is_deterministic_and_roughly_calibrated() {
        let a = FaultPlan::with_rate(11, 0.3, FaultKind::PoisonOutput);
        let b = FaultPlan::with_rate(11, 0.3, FaultKind::PoisonOutput);
        let fires_a: Vec<bool> = (0..2000).map(|_| a.decide("k").is_some()).collect();
        let fires_b: Vec<bool> = (0..2000).map(|_| b.decide("k").is_some()).collect();
        assert_eq!(fires_a, fires_b, "same seed, same schedule");
        let rate = fires_a.iter().filter(|&&x| x).count() as f64 / 2000.0;
        assert!(
            (0.25..0.35).contains(&rate),
            "empirical rate {rate} far from 0.3"
        );
    }
}
