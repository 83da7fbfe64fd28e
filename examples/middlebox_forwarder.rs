//! A middlebox: capture → inspect/modify → forward.
//!
//! "WireCAP implements a packet transmit function that allows captured
//! packets to be forwarded, potentially after the packets are modified or
//! inspected in flight. Therefore, WireCAP can be used to support
//! middlebox-type applications." (§1)
//!
//! This example builds a router-style middlebox on the live engine: it
//! captures from NIC1, decrements the IPv4 TTL (patching the checksum
//! incrementally per RFC 1624), answers expired packets with ICMP Time
//! Exceeded like a real router, and "transmits" survivors into NIC2,
//! where a receiver validates every forwarded frame.
//!
//! Forwarding is stateless per packet, which makes it the textbook
//! client for the [`wirecap::ConsumerPool`] (DESIGN.md §4.11): instead
//! of binding one middlebox thread to each ingress queue, a pool of
//! workers serves *all* queues, claiming sealed chunks from whichever
//! queue RSS happens to favour. Each worker
//! keeps its own `Middlebox` and scratch buffer in thread-local
//! storage, so the hot loop stays allocation- and lock-free.
//!
//! Run with:
//! ```sh
//! cargo run --release --example middlebox_forwarder
//! ```

use apps::forwarder::{Middlebox, Verdict};
use apps::live::{drive, Consumers};
use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wirecap::{NicSimBackend, WireCapConfig};

fn main() {
    // NIC1 faces the traffic source; NIC2 faces the next hop.
    let nic2 = LiveNic::new(2, 8192);
    let mut cfg = WireCapConfig::advanced(64, 64, 0.6, 0).forwarding();
    cfg.capture_timeout_ns = 2_000_000;

    // The middlebox: a pool of two workers over both NIC1 queues.
    // Whichever queue the traffic lands on, both workers process it —
    // shared claim queues replace static queue ownership.
    let forwarded_ctr = Arc::new(AtomicU64::new(0));
    let expired_ctr = Arc::new(AtomicU64::new(0));
    let icmp_ctr = Arc::new(AtomicU64::new(0));
    let middlebox = {
        let egress = Arc::clone(&nic2);
        let forwarded_ctr = Arc::clone(&forwarded_ctr);
        let expired_ctr = Arc::clone(&expired_ctr);
        let icmp_ctr = Arc::clone(&icmp_ctr);
        Consumers::pool(2, move |_| {
            move |d: wirecap::PoolDelivery<'_>| {
                thread_local! {
                    // One middlebox + scratch buffer per worker thread:
                    // frames are inspected/modified straight off the
                    // borrowed chunk view, with no per-packet allocation.
                    static MB: RefCell<(Middlebox, Vec<u8>)> =
                        RefCell::new((Middlebox::new(), Vec::new()));
                }
                MB.with(|cell| {
                    let mut cell = cell.borrow_mut();
                    let (mb, scratch) = &mut *cell;
                    let mut forwarded = 0u64;
                    let mut expired = 0u64;
                    for pkt in d.view().iter() {
                        let verdict = mb.process_slice(pkt.data, scratch);
                        if verdict == Verdict::TtlExpired {
                            // A real router answers with ICMP Time
                            // Exceeded toward the sender.
                            let _reply = mb
                                .time_exceeded_reply(pkt.data)
                                .expect("IPv4 frame quotes cleanly");
                            expired += 1;
                        } else {
                            // Transmit owns its frame: the one copy out
                            // of the scratch buffer happens here.
                            let out = netproto::Packet {
                                ts_ns: pkt.ts_ns,
                                wire_len: pkt.wire_len,
                                data: bytes::Bytes::copy_from_slice(scratch),
                            };
                            while egress.inject(out.clone()).is_none() {
                                std::thread::yield_now();
                            }
                            forwarded += 1;
                        }
                    }
                    forwarded_ctr.fetch_add(forwarded, Ordering::Relaxed);
                    expired_ctr.fetch_add(expired, Ordering::Relaxed);
                    icmp_ctr.fetch_add(expired, Ordering::Relaxed);
                });
            }
        })
    };

    // The next hop: drain NIC2 and validate every forwarded frame.
    let receiver = {
        let nic2 = Arc::clone(&nic2);
        std::thread::spawn(move || {
            let queues: Vec<_> = (0..2).map(|q| nic2.queue(q)).collect();
            let mut received = 0u64;
            loop {
                let mut idle = true;
                for queue in &queues {
                    while let Some(pkt) = queue.pop() {
                        idle = false;
                        netproto::builder::validate_frame(&pkt.data)
                            .expect("forwarded frames must stay well-formed");
                        received += 1;
                    }
                }
                if idle {
                    if nic2.is_stopped() && queues.iter().all(|q| q.depth() == 0) {
                        return received;
                    }
                    std::thread::yield_now();
                }
            }
        })
    };

    // Traffic into NIC1: normal packets plus a slice arriving with TTL 1
    // (these must die at the middlebox).
    let mut builder = PacketBuilder::new();
    let total = 5_000u64;
    let expiring = total.div_ceil(10);
    let traffic = (0..total).map(move |i| {
        let flow = FlowKey::udp(
            Ipv4Addr::new(172, 16, (i >> 8) as u8, (i & 0xff) as u8 | 1),
            20_000 + (i % 1_000) as u16,
            Ipv4Addr::new(131, 225, 107, 3),
            9_000,
        );
        let mut pkt = builder.build_packet((i + 1) * 2_000, &flow, 300).unwrap();
        if i % 10 == 0 {
            // Rewrite TTL to 1 and refresh the header checksum.
            let mut bytes = pkt.data.to_vec();
            bytes[14 + 8] = 1;
            bytes[14 + 10] = 0;
            bytes[14 + 11] = 0;
            let csum = netproto::checksum::checksum(&bytes[14..34]);
            bytes[24..26].copy_from_slice(&csum.to_be_bytes());
            pkt.data = bytes.into();
        }
        pkt
    });
    let nic1 = NicSimBackend::new(LiveNic::new(2, 8192));
    let run = drive(nic1, cfg, middlebox, traffic, 0);
    let reports = run.workers;
    let forwarded = forwarded_ctr.load(Ordering::Relaxed);
    let expired = expired_ctr.load(Ordering::Relaxed);
    let icmp_sent = icmp_ctr.load(Ordering::Relaxed);
    let stolen: u64 = reports.iter().map(|r| r.stolen_chunks).sum();
    nic2.stop();
    let received = receiver.join().expect("receiver thread");

    println!("ingress  : {total} packets ({expiring} arriving with TTL 1)");
    println!("forwarded: {forwarded}  expired: {expired}  ICMP time-exceeded sent: {icmp_sent}");
    for r in &reports {
        println!(
            "worker {} : {} packets in {} chunks ({} stolen)",
            r.worker, r.packets, r.chunks, r.stolen_chunks
        );
    }
    println!("pool     : {stolen} chunks claimed by a worker outside their queue's shard");
    println!("egress   : {received} validated frames at the next hop");
    assert_eq!(expired, expiring);
    assert_eq!(icmp_sent, expiring, "every expiry answered with ICMP");
    assert_eq!(forwarded, total - expiring);
    assert_eq!(
        received, forwarded,
        "every forwarded frame reaches the peer"
    );
    println!("middlebox OK: inspect-modify-forward with zero loss");
}
