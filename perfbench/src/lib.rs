//! # quepa-perfbench — the repository's end-to-end benchmark
//!
//! Three seeded, fixed-work workloads run against the program's public
//! API — `cold-mix` (in-process, cold cache, four native languages),
//! `wire-zipf` (loopback TCP through `quepa-serve`, Zipf-skewed windows)
//! and `read-write` (a reader and a writer on one durable instance) —
//! and every run checks the program's outputs. `--trace 1` replays the
//! same sequences and times each layer's public functions from outside
//! the program. See `README.md` in this directory.

pub mod bench;
pub mod check;
pub mod plan;
pub mod report;
pub mod stats;
pub mod sys;
