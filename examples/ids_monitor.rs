//! An intrusion-detection-style monitor on multiple queues with
//! buddy-group offloading.
//!
//! The paper's motivating application class is IDS (Snort/Kargus-style)
//! monitoring: per-flow RSS steering across cores, one analysis thread
//! per queue, and load imbalance threatening drops (§1). This example
//! runs a 4-queue live WireCAP engine in **advanced mode**: all four
//! queues form one buddy group, so when skewed traffic overloads one
//! queue its chunks are offloaded to idle buddies — the analysis threads
//! see every packet regardless of which core RSS favoured.
//!
//! Each analysis thread runs the paper's `pkt_handler` workload: the
//! real BPF filter `131.225.2 and UDP` executed on the classic-BPF VM,
//! plus a tiny port-scan detector as the "IDS logic".
//!
//! Run with:
//! ```sh
//! cargo run --release --example ids_monitor
//! ```

use apps::live::{drive, Consumers};
use apps::PktHandler;
use netproto::{parse_frame, FlowKey, Packet, PacketBuilder};
use nicsim::livenic::LiveNic;
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wirecap::{ChunkView, NicSimBackend, WireCapConfig};

const QUEUES: usize = 4;

/// Destination ports seen per source address, across every queue.
type PortMap = HashMap<Ipv4Addr, BTreeSet<u16>>;

fn main() {
    let mut cfg = WireCapConfig::advanced(64, 128, 0.6, 0); // 8k-packet pools
    cfg.capture_timeout_ns = 2_000_000;

    // Analysis threads: pkt_handler + a port-scan detector counting
    // distinct destination ports per source address.
    let counts: Arc<Vec<[AtomicU64; 2]>> =
        Arc::new((0..QUEUES).map(|_| Default::default()).collect());
    let ports_by_src: Arc<Mutex<PortMap>> = Arc::default();
    let consumers = {
        let counts = Arc::clone(&counts);
        let ports_by_src = Arc::clone(&ports_by_src);
        Consumers::per_queue(move |q| {
            let counts = Arc::clone(&counts);
            let ports_by_src = Arc::clone(&ports_by_src);
            let mut handler = PktHandler::paper(3);
            move |view: ChunkView<'_>| {
                let mut ports = ports_by_src.lock().expect("port map poisoned");
                let mut matched = 0u64;
                // Analysis runs on borrowed arena slices — no copy.
                for pkt in view.iter() {
                    matched += u64::from(handler.handle_bytes(pkt.data));
                    if let Some(flow) = parse_frame(pkt.data).ok().and_then(|p| p.flow) {
                        ports.entry(flow.src_ip).or_default().insert(flow.dst_port);
                    }
                }
                counts[q][0].fetch_add(view.len() as u64, Ordering::Relaxed);
                counts[q][1].fetch_add(matched, Ordering::Relaxed);
            }
        })
    };

    // Traffic: a benign baseline spread over many flows, one heavy UDP
    // stream into the monitored prefix (this pins one queue — the
    // imbalance the buddy group absorbs), and a port scanner.
    let mut builder = PacketBuilder::new();
    let mut ts = 0u64;
    let mut traffic: Vec<Packet> = Vec::new();
    let mut push = |gap: u64, flow: &FlowKey, len: usize| {
        ts += gap;
        traffic.push(builder.build_packet(ts, flow, len).unwrap());
    };
    // Benign flows.
    for i in 0..2_000u16 {
        let flow = FlowKey::tcp(
            Ipv4Addr::new(10, 1, (i >> 8) as u8, (i & 0xff) as u8),
            30_000 + i,
            Ipv4Addr::new(131, 225, 9, 40),
            443,
        );
        push(700, &flow, 512);
    }
    // The elephant: one flow, one queue, 6 000 packets.
    let elephant = FlowKey::udp(
        Ipv4Addr::new(192, 0, 2, 99),
        55_555,
        Ipv4Addr::new(131, 225, 2, 14),
        2_811,
    );
    for _ in 0..6_000 {
        push(300, &elephant, 1024);
    }
    // The scanner: one source sweeping 200 ports.
    for port in 1..=200u16 {
        let probe = FlowKey::tcp(
            Ipv4Addr::new(203, 0, 113, 66),
            44_000,
            Ipv4Addr::new(131, 225, 2, 5),
            port,
        );
        push(900, &probe, 64);
    }
    // Injection is lightly paced so the wire rate stays within what
    // the analysis threads on a busy CI box can absorb — the point
    // here is the offloading behaviour, not overload drops.
    let backend = NicSimBackend::new(LiveNic::new(QUEUES, 8192));
    let run = drive(backend, cfg, consumers, traffic, 500_000);

    let mut processed = 0u64;
    let mut matched = 0u64;
    for (q, [p, m]) in counts.iter().enumerate() {
        let (p, m) = (p.load(Ordering::Relaxed), m.load(Ordering::Relaxed));
        println!("queue {q}: processed {p} packets ({m} matched the filter)");
        processed += p;
        matched += m;
    }
    let alerts: Vec<(Ipv4Addr, usize)> = ports_by_src
        .lock()
        .expect("port map poisoned")
        .iter()
        .filter(|(_, p)| p.len() >= 50)
        .map(|(ip, p)| (*ip, p.len()))
        .collect();
    let tel = run.snapshot.total();
    let total = run.offered;
    let offloaded = tel.offloaded_in_chunks;
    let dropped = tel.capture_drop_packets;

    println!("---");
    println!("injected {total}, processed {processed}, dropped {dropped}");
    println!("filter matches: {matched} (elephant stream is UDP into 131.225.2/24)");
    println!("chunks offloaded between buddies: {offloaded}");
    for (ip, n) in &alerts {
        println!("ALERT: port scan from {ip} ({n} distinct destination ports)");
    }
    assert_eq!(processed, total, "lossless capture");
    assert!(!alerts.is_empty(), "the scanner must be detected");
    assert!(matched >= 6_000, "the elephant matches the paper filter");
}
