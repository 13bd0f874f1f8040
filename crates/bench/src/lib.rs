//! # tp-bench — the evaluation harness
//!
//! One module per group of results from §5 of the paper; each experiment
//! returns a printable report. The `src/bin/` binaries are thin wrappers
//! (`cargo run --release -p tp-bench --bin table3`), `reproduce_all`
//! regenerates every table and figure in one run, and `campaign` runs the
//! experiment registry ([`campaign`]) across the platform registry with
//! machine-readable results and a golden leak/closed verdict gate.
//!
//! Sample sizes default to values that finish in minutes; set the
//! environment variable `TP_SAMPLES` (a scale factor, e.g. `0.25` or `4`)
//! to trade precision for time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod channels;
pub mod cli;
pub mod cloud;
pub mod splash;
#[cfg(test)]
mod srcfp;
pub mod store;
pub mod supervise;
pub mod tables;
pub mod util;
