//! `fig_flows` — online flow analytics at scale (DESIGN.md §4.15,
//! EXPERIMENTS.md).
//!
//! Sweeps flow-universe size × pool workers over border-trace-shaped
//! traffic and reports end-to-end delivered pps with the per-worker
//! [`flowstat::FlowSink`] stage enabled: exact set-associative flow
//! table, top-K candidate tracking, and the per-chunk telemetry flush,
//! exactly as `run_pooled_flows` wires them. The trace is rendered
//! lazily as it is injected, so no point materializes its packets.
//! Every point asserts flow conservation (each delivered packet lands
//! in exactly one live or eviction-folded flow count) before its rate
//! is reported, and points without table eviction additionally check
//! the merged top-16 against the trace's ground truth.
//!
//! `--small` runs a single reduced point (the CI smoke configuration
//! `scripts/check.sh` uses).

use apps::multi_pkt_handler::{run_pooled_flows, FlowReport};
use bench::{write_json, write_table, Opts};
use flowstat::{FlowSinkConfig, PackedFlowKey};
use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use serde::Serialize;
use traffic::{generate_border_trace, BorderTraceConfig, Trace};
use wirecap::WireCapConfig;

/// Receive queues per point (RSS spreads the trace's flows over these).
const QUEUES: usize = 4;
/// Filter repetitions in each worker's `pkt_handler` (light consumer).
const FILTER_X: u32 = 1;
/// Heavy hitters reported per point.
const K: usize = 16;

/// One measured configuration.
#[derive(Serialize)]
struct FlowPoint {
    flows: usize,
    trace_packets: usize,
    workers: usize,
    table_capacity: usize,
    elapsed_s: f64,
    pps: f64,
    tracked_packets: u64,
    live_flows: u64,
    evicted_flows: u64,
    evicted_packets: u64,
    hash_collisions: u64,
    top1_packets: u64,
    /// Sum of the merged top-16 counts (elephant share of the trace).
    top16_packets: u64,
    /// Whether the merged top-16 matched the trace ground truth
    /// exactly (asserted whenever the table never evicted).
    exact_top16: bool,
}

/// The trace's own ground truth: top `k` flows by packet count, ties
/// broken by packed key like the tracker does.
fn true_top(trace: &Trace, k: usize) -> Vec<(FlowKey, u64)> {
    let sizes = trace.flow_sizes();
    let mut all: Vec<(FlowKey, u64)> = trace
        .flows()
        .iter()
        .zip(&sizes)
        .filter(|(_, n)| **n > 0)
        .map(|(f, n)| (*f, *n))
        .collect();
    all.sort_unstable_by(|a, b| {
        b.1.cmp(&a.1)
            .then(PackedFlowKey::from_flow(&a.0).cmp(&PackedFlowKey::from_flow(&b.0)))
    });
    all.truncate(k);
    all
}

/// Every delivered packet must sit in exactly one flow count: live in
/// some worker's table or folded into its eviction aggregate.
fn assert_conserved(report: &FlowReport, injected: u64) {
    assert_eq!(report.processed, injected, "packets lost in delivery");
    assert_eq!(report.unparsed, 0, "border trace frames all parse");
    assert_eq!(
        report.tracked_packets, report.processed,
        "every processed packet was recorded"
    );
    let pool_packets: u64 = report.run.workers.iter().map(|w| w.packets).sum();
    assert_eq!(pool_packets, report.processed, "pool reports disagree");
    assert!(
        report.evicted_packets <= report.tracked_packets,
        "eviction aggregate exceeds recorded packets"
    );
}

fn run_point(trace: &Trace, flows: usize, workers: usize) -> FlowPoint {
    let injected = trace.len() as u64;
    let mut cfg = WireCapConfig::basic(64, 32, 0);
    cfg.capture_timeout_ns = 2_000_000;
    let flow_cfg = FlowSinkConfig::default();
    let mut b = PacketBuilder::new();
    let report = run_pooled_flows(
        wirecap::NicSimBackend::new(LiveNic::new(QUEUES, 4096)),
        cfg,
        FILTER_X,
        workers,
        flow_cfg,
        K,
        trace.records().iter().map(|r| trace.render(&mut b, r)),
    );
    let elapsed = report.run.elapsed_s;

    assert_conserved(&report, injected);
    let exact_top16 = if report.evicted_flows == 0 {
        assert_eq!(
            report.top,
            true_top(trace, K),
            "eviction-free run must report the exact top-{K}"
        );
        true
    } else {
        false
    };
    FlowPoint {
        flows,
        trace_packets: trace.len(),
        workers,
        table_capacity: flow_cfg.table_capacity,
        elapsed_s: elapsed,
        pps: injected as f64 / elapsed,
        tracked_packets: report.tracked_packets,
        live_flows: report.live_flows,
        evicted_flows: report.evicted_flows,
        evicted_packets: report.evicted_packets,
        hash_collisions: report.hash_collisions,
        top1_packets: report.top.first().map_or(0, |t| t.1),
        top16_packets: report.top.iter().map(|t| t.1).sum(),
        exact_top16,
    }
}

/// The border trace at a given flow-universe size. The packet budget
/// grows with the universe so the large points actually *observe*
/// their flows (a 1M-flow point needs multiple packets per flow for
/// the table to fill and churn).
fn trace_for(flows: usize, packets: usize) -> Trace {
    generate_border_trace(&BorderTraceConfig {
        flows,
        packets,
        ..BorderTraceConfig::default()
    })
}

#[derive(Serialize)]
struct Doc {
    benchmark: String,
    queues: usize,
    filter_x: u32,
    k: usize,
    points: Vec<FlowPoint>,
}

fn main() {
    let opts = Opts::parse();
    let (flow_counts, worker_counts): (Vec<usize>, Vec<usize>) = if opts.small {
        (vec![2_000], vec![2])
    } else {
        (vec![10_000, 100_000, 1_000_000], vec![1, 2, 4])
    };

    let mut points: Vec<FlowPoint> = Vec::new();
    for &flows in &flow_counts {
        let packets = if opts.small {
            50_000
        } else {
            (flows * 3).max(1_000_000)
        };
        eprintln!("fig_flows: generating border trace, {flows} flows, {packets} packets");
        let trace = trace_for(flows, packets);
        for &w in &worker_counts {
            eprintln!("fig_flows: {flows} flows x {w} worker(s)");
            let p = run_point(&trace, flows, w);
            eprintln!(
                "fig_flows: {:.0} pps, {} live flows, {} evicted, top1 {}",
                p.pps, p.live_flows, p.evicted_flows, p.top1_packets
            );
            points.push(p);
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.flows.to_string(),
                p.trace_packets.to_string(),
                p.workers.to_string(),
                format!("{:.0}", p.pps),
                p.live_flows.to_string(),
                p.evicted_flows.to_string(),
                p.top1_packets.to_string(),
                p.top16_packets.to_string(),
                if p.exact_top16 { "yes" } else { "n/a" }.to_string(),
            ]
        })
        .collect();
    write_table(
        &opts.out,
        "fig_flows",
        &format!(
            "Online flow analytics: delivered pps with per-worker FlowSink \
             ({QUEUES} queues, filter x{FILTER_X}, 1M-slot tables, top-{K} merged); \
             conservation asserted at every point"
        ),
        &[
            "flows",
            "packets",
            "workers",
            "pps",
            "live",
            "evicted",
            "top1",
            "top16_sum",
            "exact",
        ],
        &rows,
    );
    write_json(
        &opts.out,
        "fig_flows",
        &Doc {
            benchmark: "online flow analytics at millions of flows (DESIGN.md §4.15)".into(),
            queues: QUEUES,
            filter_x: FILTER_X,
            k: K,
            points,
        },
    );
}
