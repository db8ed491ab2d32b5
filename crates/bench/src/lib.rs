//! # sputnik-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's per-experiment
//! index), plus shared reporting helpers. Each binary prints the same rows
//! or series the paper reports and writes a JSON record under `results/`.

pub mod gate;
pub mod registry;
pub mod report;

pub use gpu_sim::trace::Json;
pub use report::{geo_mean, has_flag, write_json, Row, Table};
