//! Capture-to-delivery tail latency against pool size (`fig_latency`,
//! DESIGN.md §4.16).
//!
//! A large ring buffer pool is great for loss tolerance but costs tail
//! latency: when the consumer lags, up to R chunks queue behind it, and
//! every queued chunk adds a full service time to the chunks sealed
//! after it (bufferbloat, in chunk units). R is therefore the one knob
//! that trades loss tolerance for a short tail.
//!
//! Each data point runs the live engine over the nicsim backend at a
//! fixed offered load (or saturating when `offered_pps == 0`), drains
//! it through a one-worker [`wirecap::ConsumerPool`] with a blocking
//! per-chunk stage (the deterministic service time), and reports the
//! p50/p99/p99.9 of the engine's own capture-to-delivery latency
//! histogram — the same `latency_ns` instrument the telemetry
//! pipeline scrapes, quantiles interpolated sub-bucket. Conservation
//! is asserted before any number is reported.

use crate::scaling::single_flow;
use apps::live::{drive, Consumers};
use nicsim::livenic::LiveNic;
use serde::Serialize;
use telemetry::HistogramSnapshot;
use wirecap::NicSimBackend;
use wirecap::WireCapConfig;

/// Cells per chunk in every latency run (chunk service time and the
/// pool working set both scale with it; one value keeps points
/// comparable).
pub const M: usize = 64;

/// Blocking per-chunk stage in the consumer, microseconds: the
/// deterministic service time that turns backlog depth into latency.
pub const CHUNK_IO_US: u64 = 20;

/// One measured configuration of the latency sweep.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyPoint {
    /// Pool chunks R.
    pub pool_chunks: usize,
    /// Paced injection rate, packets/s (0 = saturating).
    pub offered_pps: u64,
    /// Packets offered (and, conservation-checked, accounted).
    pub packets: u64,
    /// Wall-clock seconds from first injection to delivery completion.
    pub elapsed_s: f64,
    /// Aggregate delivered packets per second.
    pub pps: f64,
    /// Latency samples (delivered chunks) behind the quantiles.
    pub samples: u64,
    /// Capture-to-delivery latency median, ns (sub-bucket interpolated
    /// from the engine's own `latency_ns` histogram).
    pub p50_ns: u64,
    /// Capture-to-delivery latency 99th percentile, ns.
    pub p99_ns: u64,
    /// Capture-to-delivery latency 99.9th percentile, ns — the SLO
    /// number `scripts/check.sh` gates across pool sizes.
    pub p999_ns: u64,
    /// Largest latency sample observed, ns.
    pub max_ns: u64,
    /// Saturating points only: the tail bound of a FIFO claim queue,
    /// ns — at most R chunks wait, each served in `M / pps` seconds on
    /// average.
    pub backlog_bound_ns: Option<u64>,
}

/// Runs one latency point: `r` pool chunks, injection paced at
/// `offered_pps` (0 = as fast as the NIC accepts), one queue, one pool
/// worker with the blocking per-chunk stage.
pub fn latency_point(r: usize, offered_pps: u64, packets: u64) -> LatencyPoint {
    let mut cfg = WireCapConfig::basic(M, r, 0);
    cfg.capture_timeout_ns = 2_000_000;
    let consumers = Consumers::pool(1, |_| {
        |d: wirecap::PoolDelivery<'_>| {
            // Touch every payload byte (the cache-facing read), then
            // the deterministic blocking stage.
            let mut acc = 0u64;
            for p in d.view().iter() {
                for b in p.data {
                    acc = acc.rotate_left(7).wrapping_add(u64::from(*b));
                }
            }
            std::hint::black_box(acc);
            std::thread::sleep(std::time::Duration::from_micros(CHUNK_IO_US));
        }
    });
    let backend = NicSimBackend::new(LiveNic::new(1, 4096));
    let run = drive(backend, cfg, consumers, single_flow(packets), offered_pps);
    assert_eq!(
        run.delivered, packets,
        "latency point delivered every packet"
    );

    // Engine-wide latency distribution: per-queue histograms merged,
    // quantiles interpolated (exactly what `SeriesSample` gauges).
    let mut latency = HistogramSnapshot::default();
    for q in &run.snapshot.queues {
        latency.merge(&q.latency_ns);
    }
    let pps = run.delivered as f64 / run.elapsed_s;
    LatencyPoint {
        pool_chunks: r,
        offered_pps,
        packets,
        elapsed_s: run.elapsed_s,
        pps,
        samples: latency.count,
        p50_ns: latency.quantile(0.5),
        p99_ns: latency.quantile(0.99),
        p999_ns: latency.quantile(0.999),
        max_ns: latency.max,
        backlog_bound_ns: (offered_pps == 0).then(|| ((r * M) as f64 * 1e9 / pps) as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturated_point_conserves_and_reports_quantiles() {
        for r in [31, 64] {
            let p = latency_point(r, 0, 30_000);
            assert_eq!(p.pool_chunks, r);
            assert_eq!(p.packets, 30_000);
            assert!(p.samples > 0);
            assert!(p.p50_ns <= p.p99_ns && p.p99_ns <= p.p999_ns);
            assert!(p.p999_ns <= p.max_ns);
        }
    }
}
