//! Criterion benchmarks for the *Breathe before Speaking* workspace, and
//! the CI perf-regression gate that reads their results.
//!
//! The benches under `benches/` time the inner simulation of each
//! experiment (E1–E12) at a reduced scale, plus the engine hot paths
//! (`substrate`, `dense_engine`).  The experiment tables themselves come
//! from `full_report <name>`, not from the benches.  [`gate`] compares a
//! bench run against the checked-in `bench/baseline.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
