//! # refil-benchmark
//!
//! The repository's end-to-end benchmark: three workloads (`train_digits`,
//! `infer_domainnet`, `serve_prompt_only`) measured untraced for the
//! end-to-end metrics, and a separate traced run whose forwarding
//! decorators time each layer's public seams from outside the program.
//! See `README.md` beside this crate for the workloads and the metric map.

#![warn(missing_docs)]

pub mod cpu;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
