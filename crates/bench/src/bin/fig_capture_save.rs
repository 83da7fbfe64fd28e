//! The capture-and-save loss-rate experiment (§4).
//!
//! Fixes an emulated disk bandwidth and sweeps the offered load across
//! it: below the disk's rate the save path is lossless; above it the
//! sink's bounded handoff sheds the excess, explicitly counted into
//! `disk_drop_packets`. Because the drop policy is exact, every run
//! partitions the delivered packets into `written + disk_drop` — the
//! disk-leg loss rate is measured, not inferred — and the capture
//! path's own drop counter is reported alongside to show the headline
//! property: capture stays lossless no matter how overloaded the disk
//! is.
//!
//! Injection is paced to the target packet rate (the harness pacer:
//! 64-packet bursts released against the wall clock), so "offered
//! load" means wall-clock rate, not memory-speed flooding.

use apps::save::run;
use bench::{pct, write_json, write_table, Opts};
use capdisk::{DiskSinkConfig, RotationPolicy, SinkMode};
use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use serde::Serialize;
use std::net::Ipv4Addr;
use wirecap::{NicSimBackend, WireCapConfig};

/// Emulated disk bandwidth per queue writer, bytes/s. `max_write_bps`
/// throttles each queue's writer separately.
const DISK_BPS: u64 = 8_000_000;
/// Receive queues, one disk writer each.
const QUEUES: usize = 2;
/// Application payload bytes per generated packet.
const PAYLOAD: usize = 300;

#[derive(Debug, Serialize)]
struct Point {
    /// Offered load, packets/s (wall-clock paced).
    offered_pps: u64,
    /// Offered load as a fraction of the writers' total emulated disk
    /// bandwidth (`QUEUES × DISK_BPS`).
    offered_over_disk: f64,
    injected: u64,
    delivered: u64,
    written: u64,
    disk_dropped: u64,
    capture_dropped: u64,
    files: usize,
    /// Disk-leg loss rate: `disk_dropped / delivered`.
    disk_loss_rate: f64,
}

fn run_point(offered_pps: u64, secs: f64, dir: &std::path::Path) -> Point {
    std::fs::remove_dir_all(dir).ok();
    let total = ((offered_pps as f64 * secs) as u64).max(1);
    let mut cfg = WireCapConfig::basic(64, 48, 0);
    cfg.capture_timeout_ns = 2_000_000;
    let mut sink = DiskSinkConfig::new(dir);
    sink.rotation = RotationPolicy {
        max_file_bytes: 4 << 20,
        max_file_duration: None,
    };
    sink.handoff_chunks = 8;
    sink.max_write_bps = Some(DISK_BPS);
    let gap_ns = 1_000_000_000 / offered_pps.max(1);
    let mut b = PacketBuilder::new();
    let traffic = (0..total).map(move |i| {
        let flow = FlowKey::udp(
            Ipv4Addr::new(10, (i >> 8) as u8 & 0x7f, i as u8, 1),
            (1_000 + i % 50_000) as u16,
            Ipv4Addr::new(131, 225, 2, 1),
            443,
        );
        b.build_packet(i * gap_ns, &flow, PAYLOAD).unwrap()
    });
    let backend = NicSimBackend::new(LiveNic::new(QUEUES, 8192));
    let out = run(backend, cfg, SinkMode::Disk(sink), traffic, offered_pps);
    let report = out.disk.as_ref().expect("disk mode");
    assert!(
        report.is_conserved(),
        "unaccounted packets at {offered_pps} pps: {report:?}"
    );
    let delivered = out.delivered;
    let dropped = report.dropped_packets();
    // Rough on-disk bytes per packet (EPB framing + Ethernet/IP/UDP
    // headers), used only for the offered/disk ratio column.
    let wire_bytes = (PAYLOAD + 42 + 36) as f64;
    let point = Point {
        offered_pps,
        offered_over_disk: offered_pps as f64 * wire_bytes / (QUEUES as u64 * DISK_BPS) as f64,
        injected: total,
        delivered,
        written: report.written_packets(),
        disk_dropped: dropped,
        capture_dropped: out.snapshot.total().capture_drop_packets,
        files: report.files().len(),
        disk_loss_rate: if delivered == 0 {
            0.0
        } else {
            dropped as f64 / delivered as f64
        },
    };
    std::fs::remove_dir_all(dir).ok();
    point
}

fn main() {
    let opts = Opts::parse();
    let secs = if opts.small { 0.4 } else { 2.0 };
    let dir = std::env::temp_dir().join(format!("wirecap-fig-capture-save-{}", std::process::id()));
    // From well under the disks' rate (~42k pps saturates 2 × 8 MB/s)
    // to about 2× over it.
    let sweep: &[u64] = &[5_000, 10_000, 20_000, 40_000, 80_000];
    let points: Vec<Point> = sweep
        .iter()
        .map(|&pps| run_point(pps, secs, &dir))
        .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.offered_pps.to_string(),
                format!("{:.2}x", p.offered_over_disk),
                p.delivered.to_string(),
                p.written.to_string(),
                p.disk_dropped.to_string(),
                pct(p.disk_loss_rate),
                p.capture_dropped.to_string(),
                p.files.to_string(),
            ]
        })
        .collect();
    write_table(
        &opts.out,
        "fig_capture_save",
        "Capture-and-save — disk-leg loss rate vs. offered load over 2 × 8 MB/s disks (capture side lossless)",
        &[
            "offered pps",
            "load/disk",
            "delivered",
            "written",
            "disk drop",
            "disk loss",
            "capture drop",
            "files",
        ],
        &rows,
    );
    write_json(&opts.out, "fig_capture_save", &points);
}
