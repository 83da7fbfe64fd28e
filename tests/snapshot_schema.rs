//! Golden test: the unified snapshot schema the figure binaries emit.
//!
//! A deterministic simulation run is serialized and compared byte-for-
//! byte against `tests/golden/engine_snapshot.json`, so any change to
//! the `EngineSnapshot` / `QueueTelemetry` wire format is a deliberate,
//! reviewed diff. Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test snapshot_schema
//! ```
//!
//! A second test checks schema *uniformity*: every engine kind emits a
//! snapshot carrying the same field set, so downstream `scripts/`
//! tooling can consume any of them interchangeably.

use apps::harness::{run, EngineKind};
use engines::EngineConfig;
use telemetry::EngineSnapshot;
use traffic::WireRateGen;
use wirecap::WireCapConfig;

/// Every `QueueTelemetry` field name, in schema order — the contract
/// the golden file locks down.
const QUEUE_FIELDS: &[&str] = &[
    "queue",
    "offered_packets",
    "captured_packets",
    "delivered_packets",
    "capture_drop_packets",
    "delivery_drop_packets",
    "nic_drop_packets",
    "forwarded_packets",
    "transmitted_packets",
    "sealed_chunks",
    "partial_chunks",
    "recycled_chunks",
    "offloaded_in_chunks",
    "offloaded_out_chunks",
    "disk_written_packets",
    "disk_drop_packets",
    "worker_parks",
    "claim_contention",
    "flow_tracked_packets",
    "flow_evicted_flows",
    "flow_evicted_packets",
    "flow_hash_collisions",
    "reorder_occupancy",
    "flow_table_occupancy",
    "capture_queue_len",
    "capture_queue_watermark",
    "free_chunks",
    "ring_ready",
    "ring_used",
    "capture_queue_depth",
    "chunk_fill",
    "batch_size",
    "latency_ns",
    "latency_p999_ns",
    "stage_backend_ns",
    "stage_queue_wait_ns",
    "stage_claim_ns",
    "stage_reorder_ns",
    "stage_deliver_ns",
    "stage_disk_ns",
];

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine_snapshot.json")
}

/// The deterministic reference run: WireCAP-A over two queues against
/// the paper's burst workload.
fn reference_snapshot() -> EngineSnapshot {
    let cfg = EngineConfig::paper(300);
    let mut g = WireRateGen::paper_burst(5_000);
    let res = run(
        EngineKind::WireCap(WireCapConfig::advanced(64, 100, 0.6, 300)),
        2,
        cfg,
        &mut g,
    );
    res.telemetry
}

#[test]
fn snapshot_json_matches_golden() {
    let json = reference_snapshot().to_json() + "\n";
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run UPDATE_GOLDEN=1 cargo test --test snapshot_schema");
    assert_eq!(
        json, golden,
        "snapshot schema drifted from tests/golden/engine_snapshot.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn snapshot_round_trips_through_json() {
    let snap = reference_snapshot();
    let back: EngineSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
    assert_eq!(back.engine, snap.engine);
    assert_eq!(back.queues, snap.queues);
}

#[test]
fn every_engine_emits_the_same_schema() {
    let kinds = [
        EngineKind::Dna,
        EngineKind::Netmap,
        EngineKind::PfRing,
        EngineKind::PfPacket,
        EngineKind::Psioe,
        EngineKind::Dpdk,
        EngineKind::DpdkAppOffload(0.6),
        EngineKind::WireCap(WireCapConfig::advanced(64, 100, 0.6, 300)),
    ];
    let cfg = EngineConfig::paper(0);
    for kind in kinds {
        let mut g = WireRateGen::paper_burst(2_000);
        let res = run(kind, 2, cfg, &mut g);
        let snap = &res.telemetry;
        assert_eq!(snap.queues.len(), 2, "{}", snap.engine);
        let json = snap.to_json();
        for field in QUEUE_FIELDS {
            assert!(
                json.contains(&format!("\"{field}\"")),
                "{}: missing field {field}",
                snap.engine
            );
        }
        // Each snapshot carries real accounting, not zeros.
        let total = snap.total();
        assert!(total.offered_packets > 0, "{}", snap.engine);
        assert!(total.captured_packets > 0, "{}", snap.engine);
        // And the Prometheus rendering exposes the same counters.
        let prom = snap.to_prometheus();
        assert!(prom.contains("wirecap_captured_packets_total"));
        assert!(prom.contains("wirecap_chunk_fill_bucket") || !prom.is_empty());
    }
}
