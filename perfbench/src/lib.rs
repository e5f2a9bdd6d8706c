//! The repository's benchmark: end-to-end and per-layer metrics of the
//! decimal co-design evaluation flow, driven only through the crates'
//! public APIs.
//!
//! See `README.md` beside this crate for the workloads, the metrics and how
//! to run it.

#![deny(unsafe_code)]

pub mod clock;
pub mod layers;
pub mod report;
pub mod trace;
pub mod workloads;
