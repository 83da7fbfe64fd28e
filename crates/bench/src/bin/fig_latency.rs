//! `fig_latency` — capture-to-delivery tail latency: pool size ×
//! offered load (DESIGN.md §4.16, EXPERIMENTS.md).
//!
//! Each point runs the live engine over nicsim with a one-worker
//! consumer pool and a deterministic blocking per-chunk stage, then
//! reports the p50/p99/p99.9 of the engine's own `latency_ns` histogram
//! (sub-bucket interpolated). The sweep shows the bufferbloat story in
//! chunk units: whenever offered load presses the delivery rate, the
//! pool queues R chunks deep and p99.9 grows with the backlog the pool
//! permits, so a small R buys a short tail at the price of loss
//! tolerance.
//!
//! Conservation is asserted inside every data point before its
//! quantiles are reported. `--small` runs the reduced sweep
//! `scripts/check.sh` uses.

use bench::latency::{latency_point, LatencyPoint, CHUNK_IO_US, M};
use bench::scaling::FRAME;
use bench::{write_json, write_table, Opts};
use serde::Serialize;

#[derive(Serialize)]
struct Doc {
    benchmark: String,
    frame_bytes: usize,
    cells_per_chunk: usize,
    chunk_io_us: u64,
    packets_per_point: u64,
    points: Vec<LatencyPoint>,
    /// Saturated p99.9 of the largest pool over that of the smallest.
    tail_reduction: f64,
}

fn main() {
    let opts = Opts::parse();
    let packets: u64 = if opts.small { 120_000 } else { 600_000 };
    // Nominal delivery capacity of the one-worker consumer: one chunk
    // (M packets) per blocking stage.
    let capacity_pps = M as u64 * 1_000_000 / CHUNK_IO_US;
    // R = 31 is a small pool: 15 spare chunks beyond the 16 descriptor
    // segments of the 1024-descriptor ring at M = 64.
    let pool_sizes: Vec<usize> = if opts.small {
        vec![31, 256]
    } else {
        vec![31, 64, 256, 512]
    };
    // Offered loads: comfortably below delivered capacity (the
    // nominal M/io rate is optimistic — sleep granularity and the
    // payload fold push the real rate well under it, so /8 is the
    // safely-subcritical point), then saturating (0 = inject as fast
    // as the ring accepts).
    let loads: Vec<u64> = vec![capacity_pps / 8, 0];

    let mut points: Vec<LatencyPoint> = Vec::new();
    for &r in &pool_sizes {
        for &load in &loads {
            let load_desc = if load == 0 {
                "saturating".to_string()
            } else {
                format!("{load} pps")
            };
            eprintln!("fig_latency: R={r}, load {load_desc}, {packets} packets");
            let p = latency_point(r, load, packets);
            eprintln!(
                "fig_latency:   p50={}us p99={}us p99.9={}us",
                p.p50_ns / 1_000,
                p.p99_ns / 1_000,
                p.p999_ns / 1_000
            );
            points.push(p);
        }
    }

    // The headline pair: smallest vs largest pool, saturating load.
    let saturated = |r: usize| {
        points
            .iter()
            .find(|p| p.pool_chunks == r && p.offered_pps == 0)
            .expect("headline point present")
    };
    let small = saturated(pool_sizes[0]);
    let large = saturated(*pool_sizes.last().expect("non-empty sweep"));
    let tail_reduction = large.p999_ns as f64 / small.p999_ns.max(1) as f64;

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.pool_chunks.to_string(),
                if p.offered_pps == 0 {
                    "saturating".into()
                } else {
                    p.offered_pps.to_string()
                },
                format!("{:.0}", p.pps),
                (p.p50_ns / 1_000).to_string(),
                (p.p99_ns / 1_000).to_string(),
                (p.p999_ns / 1_000).to_string(),
                p.backlog_bound_ns
                    .map_or("-".into(), |ns| (ns / 1_000).to_string()),
            ]
        })
        .collect();
    write_table(
        &opts.out,
        "fig_latency",
        &format!(
            "Capture-to-delivery latency quantiles (us), pool size x load \
             ({packets} packets/point, {FRAME}B frames, M={M}, {CHUNK_IO_US}us/chunk I/O); \
             saturating p99.9: R={} {}us vs R={} {}us ({tail_reduction:.1}x)",
            large.pool_chunks,
            large.p999_ns / 1_000,
            small.pool_chunks,
            small.p999_ns / 1_000
        ),
        &[
            "R",
            "offered_pps",
            "pps",
            "p50_us",
            "p99_us",
            "p999_us",
            "bound_us",
        ],
        &rows,
    );
    write_json(
        &opts.out,
        "fig_latency",
        &Doc {
            benchmark: "tail latency: pool size x offered load".into(),
            frame_bytes: FRAME,
            cells_per_chunk: M,
            chunk_io_us: CHUNK_IO_US,
            packets_per_point: packets,
            tail_reduction,
            points,
        },
    );
}
