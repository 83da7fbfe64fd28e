//! End-to-end and per-layer benchmark of the live WireCAP engine.
//!
//! Drives the unmodified `LiveWireCap` over the `shmring` loopback
//! backend with pre-rendered frames from one generator thread. See
//! `README.md` in this directory for the workloads and metrics.

pub mod frames;
pub mod host;
pub mod micro;
pub mod report;
pub mod stats;
pub mod workloads;
