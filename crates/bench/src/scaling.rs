//! Multi-core delivery scaling: consumer pools against the
//! one-consumer-per-queue baseline (`fig_scaling`).
//!
//! The workload is the paper's problem case: RSS concentrates a single
//! heavy flow onto one receive queue, and the consumer is *heavy* — a
//! per-packet CPU fold plus a blocking per-chunk I/O stage (modeled as
//! a bounded sleep, standing in for the `write(2)` the capdisk writer
//! issues per batch, or any downstream RPC). With one consumer bound
//! to each queue, the hot queue's delivery rate is capped at
//! M / io-latency no matter how many queues the NIC has: the blocking
//! stage serializes, and the other consumers sit idle busy-yielding. A
//! [`wirecap::ConsumerPool`] breaks the cap: every worker claims sealed
//! chunks from the hot queue's claim queue and overlaps its blocking
//! stage with the others', so aggregate pps scales with the worker
//! count (toward linear, until capture itself becomes the bottleneck)
//! — and workers with nothing to claim park on the delivery gate
//! instead of burning the cycles the busy threads need.
//!
//! Every data point asserts the engine's conservation laws before
//! reporting a rate — a scaling number from a run that lost packets or
//! leaked chunk slots would be meaningless:
//!
//! * `delivered + delivery_drop == captured`
//! * `captured + capture_drop == offered`
//! * Σ `recycled_chunks` == Σ `sealed_chunks`

use apps::live::{drive, Consumers, LiveRun};
use netproto::{FlowKey, Packet, PacketBuilder};
use nicsim::livenic::LiveNic;
use serde::Serialize;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use telemetry::EngineSnapshot;
use wirecap::NicSimBackend;
use wirecap::WireCapConfig;

/// Payload bytes per packet.
pub const FRAME: usize = 128;

/// Per-packet application work: passes of a xor-fold over the payload.
/// Heavy enough that delivery (not capture) is the bottleneck, as in
/// the paper's x = 300 heavy-consumer runs.
pub const WORK_PASSES: usize = 8;

/// Blocking I/O latency per consumed chunk, in microseconds: the
/// synchronous stage of the consumer (a batch `write(2)`, a downstream
/// call). One consumer serializes these; pool workers overlap them.
pub const CHUNK_IO_US: u64 = 100;

/// One measured configuration of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    /// `"per_queue"` (one `LiveConsumer` thread per queue), `"pooled"`
    /// (one `ConsumerPool` over all queues, DESIGN.md §4.11), or
    /// `"pooled_ordered"` (same, with in-order delivery).
    pub mode: &'static str,
    /// Receive queues on the NIC.
    pub queues: usize,
    /// Delivery threads (baseline: always equal to `queues`).
    pub workers: usize,
    /// Packets offered (and, conservation-checked, delivered).
    pub packets: u64,
    /// Wall-clock seconds from first injection to delivery completion.
    pub elapsed_s: f64,
    /// Aggregate delivered packets per second.
    pub pps: f64,
    /// Chunks a pool worker delivered from a queue outside its shard.
    pub stolen_chunks: u64,
    /// Times pool workers parked on the delivery gate.
    pub worker_parks: u64,
    /// Claim CAS races lost by consumers of the queues.
    pub claim_contention: u64,
}

/// The per-packet work function: `WORK_PASSES` xor-folds over the
/// payload. Returns a fold the caller must keep live so the work is
/// not optimized away.
#[inline]
pub fn packet_work(data: &[u8]) -> u64 {
    let mut acc = 0u64;
    for pass in 0..WORK_PASSES {
        for (i, b) in data.iter().enumerate() {
            acc = acc
                .rotate_left(7)
                .wrapping_add(u64::from(*b) ^ ((pass + i) as u64));
        }
    }
    acc
}

fn engine_config() -> WireCapConfig {
    let mut cfg = WireCapConfig::basic(64, 32, 0);
    cfg.capture_timeout_ns = 2_000_000;
    cfg
}

/// Prebuilds `n` packets of one UDP flow, so RSS lands every packet on
/// a single queue regardless of the queue count (the skewed workload
/// here and the single-backlog workload of the `latency` sweep). Built
/// before the run, so the clock times delivery, not packet building.
pub fn single_flow(n: u64) -> Vec<Packet> {
    let mut b = PacketBuilder::new();
    let flow = FlowKey::udp(
        Ipv4Addr::new(10, 5, 5, 5),
        5_555,
        Ipv4Addr::new(131, 225, 2, 1),
        443,
    );
    (0..n)
        .map(|i| b.build_packet(i * 1_000, &flow, FRAME).unwrap())
        .collect()
}

/// Asserts the engine's conservation laws over a finished run's
/// snapshot (e2ebench checks every workload run with it).
pub fn assert_conserved(snap: &EngineSnapshot, offered: u64) {
    if let Err(broken) = snap.check_conservation(offered) {
        panic!("{broken}");
    }
}

/// Runs the skewed workload over a `queues`-queue NIC into `consumers`
/// (conservation is checked by [`drive`]).
fn skewed_run(cfg: WireCapConfig, queues: usize, packets: u64, consumers: Consumers) -> LiveRun {
    let backend = NicSimBackend::new(LiveNic::new(queues, 4096));
    let run = drive(backend, cfg, consumers, single_flow(packets), 0);
    assert_eq!(run.delivered, packets, "run delivered every packet");
    run
}

/// Runs the per-queue baseline: one `LiveConsumer` thread bound to each
/// queue, exactly the delivery topology every pre-pool example used.
pub fn baseline_point(queues: usize, packets: u64) -> ScalingPoint {
    let consumers = Consumers::per_queue(|_| {
        let mut acc = 0u64;
        move |view: wirecap::ChunkView<'_>| {
            for p in view.iter() {
                acc ^= packet_work(p.data);
            }
            std::hint::black_box(acc);
            std::thread::sleep(Duration::from_micros(CHUNK_IO_US));
        }
    });
    let run = skewed_run(engine_config(), queues, packets, consumers);
    ScalingPoint {
        mode: "per_queue",
        queues,
        workers: queues,
        packets,
        elapsed_s: run.elapsed_s,
        pps: run.delivered as f64 / run.elapsed_s,
        stolen_chunks: 0,
        worker_parks: 0,
        claim_contention: 0,
    }
}

/// Runs the pooled configuration: a `ConsumerPool` of `workers` threads
/// claiming from all queues, with adaptive parking. `in_order`
/// additionally re-serializes delivery per home queue through the
/// bounded reorder buffer.
pub fn pooled_point(queues: usize, workers: usize, packets: u64, in_order: bool) -> ScalingPoint {
    let mut cfg = engine_config();
    cfg.in_order = in_order;
    let mode = if in_order { "pooled_ordered" } else { "pooled" };
    pool_point_with(mode, cfg, queues, workers, packets)
}

fn pool_point_with(
    mode: &'static str,
    cfg: WireCapConfig,
    queues: usize,
    workers: usize,
    packets: u64,
) -> ScalingPoint {
    let acc = AtomicU64::new(0);
    let consumers = Consumers::pool(workers, move |_| {
        move |d: wirecap::PoolDelivery<'_>| {
            let mut local = 0u64;
            for p in d.view().iter() {
                local ^= packet_work(p.data);
            }
            std::thread::sleep(Duration::from_micros(CHUNK_IO_US));
            acc.fetch_add(local, Ordering::Relaxed);
        }
    });
    let run = skewed_run(cfg, queues, packets, consumers);
    let reports = &run.workers;
    ScalingPoint {
        mode,
        queues,
        workers,
        packets,
        elapsed_s: run.elapsed_s,
        pps: run.delivered as f64 / run.elapsed_s,
        stolen_chunks: reports.iter().map(|r| r.stolen_chunks).sum(),
        worker_parks: reports.iter().map(|r| r.parks).sum(),
        claim_contention: run.snapshot.queues.iter().map(|q| q.claim_contention).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_conserves_and_reports_rates() {
        let b = baseline_point(2, 20_000);
        assert_eq!(b.packets, 20_000);
        assert!(b.pps > 0.0);
        for (queues, in_order, mode) in [(2, false, "pooled"), (1, true, "pooled_ordered")] {
            let p = pooled_point(queues, 2, 20_000, in_order);
            assert_eq!(p.packets, 20_000);
            assert!(p.pps > 0.0);
            assert_eq!(p.mode, mode);
        }
    }
}
