//! Tier-1 smoke test for the capture-to-disk subsystem.
//!
//! Runs the `capture_and_save` workload end to end against a tempdir:
//! a live multi-queue engine, the `capdisk` sink with an aggressive
//! rotation policy, and a throttled variant that forces the
//! graceful-degradation path. The contract under test is the headline
//! one from DESIGN.md: a slow (or even absent) disk never stalls
//! capture, and every delivered packet is accounted for exactly —
//! `delivered == written + disk_drop`, with the written side readable
//! back out of standard pcapng files.

use apps::LiveRun;
use capdisk::{read_pcapng, DiskSinkConfig, FileFormat, RotationPolicy, SinkMode};
use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use wirecap::{NicSimBackend, WireCapConfig};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wirecap-c2d-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs `total` packets through a live `queues`-queue engine into the
/// disk `sink` (`apps::save::run`, conservation-checked).
fn save(queues: usize, depth: usize, sink: DiskSinkConfig, total: u64) -> LiveRun {
    let mut b = PacketBuilder::new();
    let traffic = (0..total).map(move |i| {
        let flow = FlowKey::udp(
            Ipv4Addr::new(10, 2, (i % 250) as u8, 1),
            (3_000 + i % 7_000) as u16,
            Ipv4Addr::new(131, 225, 2, 1),
            443,
        );
        b.build_packet(i * 2_000, &flow, 200).unwrap()
    });
    let backend = NicSimBackend::new(LiveNic::new(queues, depth));
    apps::save::run(backend, cfg(), SinkMode::Disk(sink), traffic, 0)
}

fn cfg() -> WireCapConfig {
    let mut cfg = WireCapConfig::basic(64, 48, 0);
    cfg.capture_timeout_ns = 2_000_000;
    cfg
}

/// The capture_and_save smoke: full-speed disk, rotation splits the
/// stream, zero unaccounted packets, every file parses back.
#[test]
fn capture_and_save_round_trips_through_rotated_pcapng() {
    let dir = tempdir("smoke");
    let total = 6_000u64;
    let queues = 2;
    let mut sink = DiskSinkConfig::new(&dir);
    sink.rotation = RotationPolicy {
        max_file_bytes: 96 << 10,
        max_file_duration: None,
    };
    let out = save(queues, 4096, sink, total);

    let report = out.disk.as_ref().expect("disk mode");
    assert!(report.is_conserved(), "unaccounted packets: {report:?}");
    assert_eq!(out.delivered, total);
    assert_eq!(report.written_packets() + report.dropped_packets(), total);

    // Telemetry and the sink report agree on both legs.
    let tel_written: u64 = out
        .snapshot
        .queues
        .iter()
        .map(|q| q.disk_written_packets)
        .sum();
    let tel_dropped: u64 = out
        .snapshot
        .queues
        .iter()
        .map(|q| q.disk_drop_packets)
        .sum();
    assert_eq!(tel_written, report.written_packets());
    assert_eq!(tel_dropped, report.dropped_packets());

    // Rotation produced a multi-file set and every file stands alone.
    let files = report.files();
    assert!(
        files.len() > queues,
        "expected rotation splits, got {files:?}"
    );
    let mut parsed = 0u64;
    for f in &files {
        let pf = read_pcapng(&std::fs::read(f).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        assert_eq!(pf.tsresol, 9, "nanosecond timestamps");
        parsed += pf.packets.len() as u64;
    }
    assert_eq!(parsed, report.written_packets());
    std::fs::remove_dir_all(&dir).ok();
}

/// The degradation smoke: a severely throttled emulated disk sheds
/// packets from the disk leg, capture itself stays lossless, and the
/// shed packets are counted — never silently lost.
#[test]
fn throttled_disk_degrades_gracefully_without_stalling_capture() {
    let dir = tempdir("throttle");
    let total = 8_000u64;
    let mut sink = DiskSinkConfig::new(&dir);
    sink.format = FileFormat::Pcap;
    sink.handoff_chunks = 2;
    sink.max_write_bps = Some(150_000);
    let out = save(2, 8192, sink, total);
    let capture_drop_packets = out.snapshot.total().capture_drop_packets;

    let report = out.disk.as_ref().expect("disk mode");
    assert!(report.is_conserved(), "unaccounted packets: {report:?}");
    // The disk leg shed (the whole point of the throttle)…
    assert!(
        report.dropped_packets() > 0,
        "throttle never bit: {report:?}"
    );
    // …and global accounting stays exact: every injected packet is
    // either written, shed by the disk leg, or counted as a capture
    // drop — nothing vanishes.
    assert_eq!(
        out.delivered + capture_drop_packets,
        total,
        "unaccounted packets: {report:?}"
    );
    assert_eq!(
        report.written_packets() + report.dropped_packets(),
        out.delivered
    );
    // The capture side must not be *stalled* by the slow disk. Unpaced
    // injection on a loaded CI host can cost a few chunks to scheduler
    // jitter (the drainer is a plain thread), but a writer that
    // back-pressured capture would lose the majority of the run — so
    // bound the capture-side loss well below that.
    assert!(
        capture_drop_packets < total / 4,
        "slow disk appears to stall capture: {capture_drop_packets} of {total} capture-dropped"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Idle sink threads are woken by notifies, not by park timeouts. The
/// park timeout is raised to 50 ms and traffic arrives in bursts about
/// 60 ms apart, so the drainer and the writer are parked when each
/// chunk is published. A burst half-fills a chunk, which the capture
/// timeout seals 2 ms later: the seal is then not set off by the
/// drainer's recycle, which wakes the capture thread too. A lost
/// publish notify (capture → drainer) would push the queue's
/// seal-to-delivery p50 toward 50 ms; a lost handoff notify (drainer →
/// writer) would do the same to the disk stage's p50.
#[test]
fn idle_sink_threads_wake_on_notify_not_timeout() {
    let dir = tempdir("wake");
    let bursts = 12u64;
    let total = bursts * 64;
    let mut cfg = WireCapConfig::basic(128, 32, 0);
    cfg.capture_timeout_ns = 2_000_000;
    cfg.park_timeout_ns = 50_000_000;
    cfg.span_sample_n = 1;
    let mut b = PacketBuilder::new();
    let flow = FlowKey::udp(
        Ipv4Addr::new(10, 3, 3, 3),
        3_333,
        Ipv4Addr::new(131, 225, 2, 1),
        443,
    );
    let traffic = (0..total).map(move |i| b.build_packet(i * 1_000, &flow, 200).unwrap());
    // `inject` releases bursts of 64 packets: 64 / 1 067 pps ≈ 60 ms.
    let out = apps::drive(
        NicSimBackend::new(LiveNic::new(1, 4096)),
        cfg,
        apps::Consumers::Disk(DiskSinkConfig::new(&dir)),
        traffic,
        1_067,
    );
    let report = out.disk.as_ref().expect("disk mode");
    assert!(report.is_conserved(), "unaccounted packets: {report:?}");
    assert_eq!(out.delivered, total);
    assert_eq!(report.written_packets(), total);

    let q = &out.snapshot.queues[0];
    assert!(q.stage_disk_ns.count > 0, "no sampled disk stages");
    let disk_p50 = q.stage_disk_ns.quantile(0.5);
    let delivery_p50 = q.latency_ns.quantile(0.5);
    assert!(
        disk_p50 < 5_000_000,
        "disk stage p50 {disk_p50} ns: the writer waits out its park timeout"
    );
    assert!(
        delivery_p50 < 5_000_000,
        "seal-to-delivery p50 {delivery_p50} ns: the drainer waits out its park timeout"
    );
    std::fs::remove_dir_all(&dir).ok();
}
