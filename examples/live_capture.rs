//! Live multi-queue capture to a pcap savefile.
//!
//! A tcpdump-shaped tool on top of the live engine: capture from every
//! queue of a live NIC, merge the streams, and write a standard pcap
//! savefile that any packet-analysis tool can read back (we read it back
//! ourselves to verify). Demonstrates the `multi_pkt_handler` threading
//! model of §4 plus the savefile layer.
//!
//! Run with:
//! ```sh
//! cargo run --release --example live_capture
//! ```
//!
//! Watch it live: `WIRECAP_TELEMETRY_LISTEN=127.0.0.1:9184` serves
//! `/metrics`, `/snapshot.json` and `/series.json` over HTTP for the
//! duration of the run (DESIGN.md §4.9); `WIRECAP_TELEMETRY_SAMPLE_MS=0`
//! disables the sampler thread for latency-critical runs.

use apps::live::{drive, Consumers};
use netproto::{FlowKey, Packet, PacketBuilder};
use nicsim::livenic::LiveNic;
use pcap::savefile::{self, Precision};
use std::net::Ipv4Addr;
use std::sync::mpsc;
use wirecap::{ChunkView, NicSimBackend, WireCapConfig};

const QUEUES: usize = 3;

fn main() {
    let mut cfg = WireCapConfig::basic(64, 48, 0);
    cfg.capture_timeout_ns = 2_000_000;

    // One consumer thread per queue, all feeding a single writer.
    let (tx, rx) = mpsc::channel::<Packet>();
    let consumers = Consumers::per_queue(move |_| {
        let tx = tx.clone();
        move |view: ChunkView<'_>| {
            // The savefile writer outlives the chunk, so each frame is
            // copied out of the arena into an owned packet — the price
            // of keeping bytes past recycle.
            for pkt in view.iter() {
                let owned = Packet {
                    ts_ns: pkt.ts_ns,
                    wire_len: pkt.wire_len,
                    data: bytes::Bytes::copy_from_slice(pkt.data),
                };
                tx.send(owned).expect("writer alive");
            }
        }
    });

    // A mixed workload.
    let mut builder = PacketBuilder::new();
    let total = 4_000u64;
    let traffic = (0..total).map(move |i| {
        let flow = if i % 3 == 0 {
            FlowKey::udp(
                Ipv4Addr::new(131, 225, 2, (i % 200) as u8 + 1),
                (9_000 + i % 2_000) as u16,
                Ipv4Addr::new(8, 8, 8, 8),
                53,
            )
        } else {
            FlowKey::tcp(
                Ipv4Addr::new(10, 7, (i >> 8) as u8, (i & 0xff) as u8 | 1),
                (20_000 + i % 10_000) as u16,
                Ipv4Addr::new(131, 225, 160, 11),
                443,
            )
        };
        builder.build_packet(i * 5_000, &flow, 200).unwrap()
    });
    let backend = NicSimBackend::new(LiveNic::new(QUEUES, 4096));
    let captured = drive(backend, cfg, consumers, traffic, 0).delivered;

    // Collect, sort by timestamp (streams interleave), and write pcap.
    let mut packets: Vec<Packet> = rx.iter().collect();
    packets.sort_by_key(|p| p.ts_ns);

    let path = std::env::temp_dir().join("wirecap_live_capture.pcap");
    let file = std::fs::File::create(&path).expect("creating savefile");
    savefile::write_file(
        std::io::BufWriter::new(file),
        &packets,
        Precision::Nanos,
        65_535,
    )
    .expect("writing savefile");

    // Read it back and verify.
    let data = std::fs::read(&path).expect("reading savefile back");
    let sf = savefile::read_file(&data[..]).expect("parsing savefile");

    println!("captured {captured} of {total} injected packets across {QUEUES} queues");
    println!(
        "wrote {} ({} packets, {} bytes) and read it back intact",
        path.display(),
        sf.packets.len(),
        data.len()
    );
    assert_eq!(captured, total);
    assert_eq!(sf.packets.len(), packets.len());
    assert!(sf.packets.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    println!("live_capture OK");
}
