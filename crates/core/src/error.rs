//! Typed errors for the Sputnik kernel stack.
//!
//! Every way a kernel call can fail — bad shapes, illegal configurations,
//! resource exhaustion, corrupt inputs, injected device faults, detected
//! output corruption — maps to a [`SputnikError`] variant, so callers can
//! match on the failure class and recover (see [`crate::dispatch`]) instead
//! of unwinding through a panic.

use gpu_sim::{DeviceFault, FleetError, LaunchError};
use sparse::CsrError;
use std::fmt;

/// The error type for the fallible Sputnik APIs ([`crate::try_spmm`],
/// [`crate::try_sddmm`], [`crate::dispatch`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SputnikError {
    /// Operand dimensions do not agree.
    ShapeMismatch {
        expected: String,
        found: String,
        context: &'static str,
    },
    /// The kernel configuration is illegal for this problem (bad tile
    /// shapes, subwarp wider than a warp, unsupported layout, ...).
    IllegalConfig { reason: String },
    /// The configuration's shared-memory request exceeds what the device
    /// allows for a single block.
    SmemOverBudget {
        kernel: String,
        requested: u32,
        budget: u32,
    },
    /// No block of the configured kernel can be resident on an SM: the
    /// launch can never execute.
    OccupancyZero { kernel: String },
    /// An operand contains NaN or Inf; kernel results would be meaningless
    /// and output-corruption detection impossible.
    NonFiniteOperand { operand: &'static str, index: usize },
    /// The sparse operand violates CSR invariants.
    CorruptCsr(CsrError),
    /// The device reported a fault during the launch (real or injected).
    DeviceFault(DeviceFault),
    /// A launch completed but its output failed a detection guard
    /// (non-finite values or a checksum mismatch).
    CorruptOutput { kernel: String, reason: String },
    /// The static launch auditor (`gpu_sim::static_check`) refuted a safety
    /// property of the launch descriptor — the launch was rejected before a
    /// single block was simulated (see [`gpu_sim::Gpu::run`]).
    StaticallyRefuted {
        kernel: String,
        /// The refuted check class (`bounds`, `alignment`, ...).
        class: String,
        detail: String,
    },
    /// A sharded launch's fleet stream graph could not be resolved (wait
    /// cycle or wait on a never-recorded event).
    FleetStall(FleetError),
}

impl fmt::Display for SputnikError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SputnikError::ShapeMismatch {
                expected,
                found,
                context,
            } => {
                write!(
                    f,
                    "shape mismatch in {context}: expected {expected}, found {found}"
                )
            }
            SputnikError::IllegalConfig { reason } => write!(f, "illegal configuration: {reason}"),
            SputnikError::SmemOverBudget {
                kernel,
                requested,
                budget,
            } => write!(
                f,
                "kernel {kernel} requests {requested} B shared memory; device max is {budget}"
            ),
            SputnikError::OccupancyZero { kernel } => {
                write!(
                    f,
                    "kernel {kernel} achieves zero occupancy: no block fits on an SM"
                )
            }
            SputnikError::NonFiniteOperand { operand, index } => {
                write!(
                    f,
                    "operand {operand} contains a non-finite value at index {index}"
                )
            }
            SputnikError::CorruptCsr(e) => write!(f, "corrupt CSR operand: {e}"),
            SputnikError::DeviceFault(fault) => write!(f, "device fault: {fault}"),
            SputnikError::CorruptOutput { kernel, reason } => {
                write!(f, "corrupt output from kernel {kernel}: {reason}")
            }
            SputnikError::StaticallyRefuted {
                kernel,
                class,
                detail,
            } => {
                write!(f, "kernel {kernel} statically refuted [{class}]: {detail}")
            }
            SputnikError::FleetStall(e) => write!(f, "fleet stall: {e}"),
        }
    }
}

impl std::error::Error for SputnikError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SputnikError::CorruptCsr(e) => Some(e),
            SputnikError::DeviceFault(e) => Some(e),
            SputnikError::FleetStall(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CsrError> for SputnikError {
    fn from(e: CsrError) -> Self {
        SputnikError::CorruptCsr(e)
    }
}

impl From<DeviceFault> for SputnikError {
    fn from(e: DeviceFault) -> Self {
        SputnikError::DeviceFault(e)
    }
}

impl From<FleetError> for SputnikError {
    fn from(e: FleetError) -> Self {
        SputnikError::FleetStall(e)
    }
}

impl From<LaunchError> for SputnikError {
    fn from(e: LaunchError) -> Self {
        match e {
            LaunchError::SmemOverBudget {
                kernel,
                requested,
                budget,
            } => SputnikError::SmemOverBudget {
                kernel,
                requested,
                budget,
            },
            LaunchError::OccupancyZero { kernel } => SputnikError::OccupancyZero { kernel },
            LaunchError::DeviceFault(fault) => SputnikError::DeviceFault(fault),
            LaunchError::StaticallyRefuted {
                kernel,
                class,
                detail,
            } => SputnikError::StaticallyRefuted {
                kernel,
                class: class.name().to_string(),
                detail,
            },
        }
    }
}

/// True when retrying the same launch could plausibly succeed: transient
/// device faults are retryable, everything deterministic is not.
pub fn is_transient(err: &SputnikError) -> bool {
    matches!(
        err,
        SputnikError::DeviceFault(_) | SputnikError::CorruptOutput { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::FaultKind;

    #[test]
    fn launch_error_maps_to_matching_variant() {
        let e: SputnikError = LaunchError::OccupancyZero { kernel: "k".into() }.into();
        assert!(matches!(e, SputnikError::OccupancyZero { .. }));
        let e: SputnikError = LaunchError::SmemOverBudget {
            kernel: "k".into(),
            requested: 1 << 20,
            budget: 96 << 10,
        }
        .into();
        assert!(matches!(e, SputnikError::SmemOverBudget { .. }));
    }

    #[test]
    fn transience_classification() {
        let fault = SputnikError::DeviceFault(DeviceFault {
            kind: FaultKind::EccError,
            kernel: "k".into(),
            launch_index: 0,
        });
        assert!(is_transient(&fault));
        assert!(!is_transient(&SputnikError::IllegalConfig {
            reason: "x".into()
        }));
    }

    #[test]
    fn display_is_informative() {
        let e = SputnikError::NonFiniteOperand {
            operand: "b",
            index: 7,
        };
        assert!(format!("{e}").contains("non-finite"));
    }
}
