//! Experiment-harness crate: see `src/bin/experiments.rs`.
//!
//! The library target holds the dataset, workload and timing helpers the
//! experiment binary shares with its tests.

pub mod harness;
