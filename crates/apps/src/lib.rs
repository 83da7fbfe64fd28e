//! # apps — the paper's experiment tools and harness
//!
//! §2.2 of the paper introduces its experiment tools; this crate
//! implements each of them plus the machinery that turns a workload and
//! an engine into a drop-rate measurement:
//!
//! * [`queue_profiler`] — "a single-threaded application that captures
//!   packets from a specific receive queue and counts the number of
//!   packets captured every 10 ms" (Fig. 3);
//! * [`pkt_handler`] — "captures and processes packets from a specific
//!   queue … a packet is captured and applied with a Berkeley Packet
//!   Filter x times before being discarded", with the real BPF VM doing
//!   the work in live mode;
//! * [`multi_pkt_handler`] — the multi-threaded variant driving the live
//!   WireCAP engine (§4);
//! * [`live`] — the one live-run harness: [`live::inject`] and
//!   [`live::drive`] (engine → consumers → traffic → stop → join →
//!   shutdown → conservation-checked snapshot), under every live run;
//! * [`forwarder`] — the middlebox application of the forwarding
//!   experiments: inspect, modify (TTL decrement + incremental checksum
//!   fix), forward;
//! * [`harness`] — steers a [`traffic::TrafficSource`] through the NIC's
//!   RSS stage into any [`engines::CaptureEngine`] and collects the
//!   paper's metrics ([`harness::ExperimentResult`]);
//! * [`save`] — `capture_and_save`: the capture-to-disk harness over
//!   the live engine, with the graceful-degradation disk sink;
//! * [`timestamping`] — the §5c timestamp-accuracy/overhead study
//!   (OS jiffy vs. per-packet TSC vs. batched TSC).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod forwarder;
pub mod harness;
pub mod live;
pub mod multi_pkt_handler;
pub mod pkt_handler;
pub mod queue_profiler;
pub mod save;
pub mod timestamping;

pub use harness::{run_experiment, EngineKind, ExperimentResult};
pub use live::{drive, inject, Consumers, LiveRun};
pub use pkt_handler::PktHandler;
pub use queue_profiler::QueueProfiler;
