//! Buddy-offload accounting under early consumer shutdown.
//!
//! The audit behind this test: `offloaded_out_chunks` (home queue's
//! capture shard) and `offloaded_in_chunks` (target queue's peer shard)
//! are both incremented at stage time on the capture thread — the same
//! code path, before the chunk is even published — so no consumer-side
//! interleaving can split them. What a departing consumer *can* do is
//! strand offloaded chunks in the target queue's claim queue; the
//! engine's contract is that a later consumer on the same queue finds
//! and recycles them, leaving the global
//! accounting conserved:
//!
//! * Σ `offloaded_out_chunks` == Σ `offloaded_in_chunks`,
//! * Σ `delivered_packets` + Σ `delivery_drop_packets` ==
//!   Σ `captured_packets` (every packet that entered a chunk either
//!   reached an application or is explicitly counted as stranded by a
//!   departing consumer),
//! * Σ `recycled_chunks` == Σ `sealed_chunks` (every slot came home).
//!
//! The audit found — and `LiveConsumer::drop` now fixes — a real leak
//! here: a consumer dropped mid-run used to strand the chunks already
//! popped into its private inbox, permanently bleeding pool slots and
//! breaking all three equalities.
//!
//! The proptest drives randomized early-consumer-shutdown
//! interleavings: a single flow concentrates all traffic on one queue
//! (forcing offloads to its buddy once the backlog crosses T), the
//! buddy's consumer exits after a random number of chunks mid-run, and
//! a rescue consumer attaches afterwards to drain what was stranded.

use apps::live::{drive, inject, Consumers};
use netproto::{FlowKey, Packet, PacketBuilder};
use nicsim::livenic::LiveNic;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use shmring::ShmRingNic;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;
use telemetry::EngineSnapshot;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::{CaptureBackend, LoopbackBackend, NicSimBackend, WireCapConfig};

/// Both loopback-capable backends, same two-queue geometry: the offload
/// conservation laws are a property of the engine, not of where frames
/// come from.
fn backends() -> Vec<Arc<dyn LoopbackBackend>> {
    vec![
        NicSimBackend::new(LiveNic::new(2, 8192)) as Arc<dyn LoopbackBackend>,
        ShmRingNic::new(2, 8192) as Arc<dyn LoopbackBackend>,
    ]
}

/// Packets `range` of one flow: RSS hashes every one to the same queue.
fn one_flow(range: std::ops::Range<u64>) -> impl Iterator<Item = Packet> {
    let mut b = PacketBuilder::new();
    let flow = FlowKey::udp(
        Ipv4Addr::new(10, 7, 7, 7),
        7_777,
        Ipv4Addr::new(131, 225, 2, 1),
        443,
    );
    range.map(move |i| b.build_packet(i * 1_000, &flow, 120).unwrap())
}

/// One randomized run: `total` packets of a single flow, the offload
/// target's consumer exiting after `early_chunks` chunks, and the home
/// queue's consumer slowed by `busy_sleep_us` per chunk (backlog
/// pressure that makes offloading fire). `(m, r)` is the pool
/// geometry: offloading and the stranded-chunk rescue must conserve
/// with a small pool just as with a large one. Returns the final
/// snapshot.
fn run_interleaving(
    backend: Arc<dyn LoopbackBackend>,
    total: u64,
    early_chunks: usize,
    busy_sleep_us: u64,
    (m, r): (usize, usize),
) -> EngineSnapshot {
    let mut cfg = WireCapConfig::advanced(m, r, 0.2, 0);
    cfg.capture_timeout_ns = 1_000_000;
    let upcast: Arc<dyn CaptureBackend> = backend.clone();
    let engine = LiveWireCap::builder()
        .backend(upcast)
        .config(cfg)
        .groups(BuddyGroups::single(2))
        .start();

    // A single flow RSS-hashes every packet to one queue; learn which
    // from the first injection so the test is independent of the hash.
    let first = one_flow(0..1).next().unwrap();
    let busy = loop {
        match backend.inject(first.clone()) {
            Some(q) => break q,
            None => std::thread::yield_now(),
        }
    };
    let target = 1 - busy;

    // Home-queue consumer: runs to completion, artificially slow so the
    // capture queue backs up past T and offloading engages.
    let busy_thread = {
        let mut c = engine.consumer(busy);
        std::thread::spawn(move || {
            while let Some(chunk) = c.next_chunk() {
                if busy_sleep_us > 0 {
                    std::thread::sleep(Duration::from_micros(busy_sleep_us));
                }
                c.recycle(chunk);
            }
        })
    };

    // The early-exit consumer on the offload target: takes at most
    // `early_chunks` chunks, recycles them, then drops mid-run —
    // stranding whatever lands on the target's claim queue afterwards.
    let early_thread = {
        let mut c = engine.consumer(target);
        std::thread::spawn(move || {
            for _ in 0..early_chunks {
                match c.next_chunk() {
                    Some(chunk) => c.recycle(chunk),
                    None => break,
                }
            }
        })
    };

    let injector = {
        let backend = Arc::clone(&backend);
        std::thread::spawn(move || {
            inject(backend.as_ref(), one_flow(1..total), 0);
            backend.stop().expect("stop backend");
        })
    };

    // Rescue: after the early consumer is gone (sequential hand-off on
    // the same queue), a fresh consumer drains the stranded chunks to
    // end-of-stream. It must start before the injector joins: with
    // nobody claiming from the target's queue, offloaded chunks would
    // pin the busy queue's pool and the NIC ring behind it would fill.
    early_thread.join().expect("early consumer panicked");
    let mut rescue = engine.consumer(target);
    while let Some(chunk) = rescue.next_chunk() {
        rescue.recycle(chunk);
    }
    injector.join().expect("injector panicked");
    busy_thread.join().expect("busy consumer panicked");
    drop(rescue); // flush its delivery tally before snapshotting
    let snapshot = engine.snapshot();
    engine.shutdown();
    snapshot
}

fn assert_conserved(snap: &EngineSnapshot, total: u64) {
    if let Err(broken) = snap.check_conservation(total) {
        panic!("{broken}: {snap:?}");
    }
    let out: u64 = snap.queues.iter().map(|q| q.offloaded_out_chunks).sum();
    let inn: u64 = snap.queues.iter().map(|q| q.offloaded_in_chunks).sum();
    assert_eq!(out, inn, "offload out/in drifted: {snap:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Conservation holds across randomized early-shutdown
    /// interleavings: any exit point of the target's consumer, any
    /// backlog pressure on the home queue, on every backend, at any
    /// pool geometry: M = 32 with R from the floor N/M + 1 = 33 up to
    /// 40, or M = 16 with R = 65.
    #[test]
    fn offload_accounting_survives_early_consumer_exit(
        total in 1_500u64..5_000,
        early_chunks in 0usize..12,
        busy_sleep_us in 0u64..200,
        geometry in prop_oneof![(33usize..=40).prop_map(|r| (32, r)), Just((16, 65))],
    ) {
        for backend in backends() {
            let snap = run_interleaving(backend, total, early_chunks, busy_sleep_us, geometry);
            assert_conserved(&snap, total);
        }
    }
}

/// Deterministic companion: pressure high enough that offloading
/// demonstrably fires (the proptest above must hold whether or not it
/// does; this pins that the scenario actually exercises the offload
/// path and the stranded-chunk rescue).
#[test]
fn offloads_fire_and_survive_target_consumer_exit() {
    for backend in backends() {
        let name = backend.name();
        let snap = run_interleaving(backend, 6_000, 2, 300, (32, 40));
        assert_conserved(&snap, 6_000);
        let out: u64 = snap.queues.iter().map(|q| q.offloaded_out_chunks).sum();
        assert!(
            out > 0,
            "{name}: scenario failed to trigger offloading: {snap:?}"
        );
    }
}

/// Buddy placement must see the backlog waiting in the claim queues,
/// not only the chunks staged in the current flush. One flow pins all
/// traffic to one queue and a single slow pool worker drains both, so
/// the hot queue's claim queue sits above T for most of the run and
/// placement must keep moving chunks to the idle buddy.
#[test]
fn placement_counts_the_claim_queue_backlog() {
    const TOTAL: u64 = 20_000;
    for backend in backends() {
        let name = backend.name();
        let mut cfg = WireCapConfig::advanced(32, 40, 0.2, 0);
        cfg.capture_timeout_ns = 1_000_000;
        let pool = Consumers::pool(1, |_| |_| std::thread::sleep(Duration::from_micros(200)));
        let snap = drive(backend, cfg, pool, one_flow(0..TOTAL), 0).snapshot;
        assert_conserved(&snap, TOTAL);
        let sealed: u64 = snap.queues.iter().map(|q| q.sealed_chunks).sum();
        let offloaded: u64 = snap.queues.iter().map(|q| q.offloaded_out_chunks).sum();
        assert!(
            offloaded * 4 >= sealed,
            "{name}: only {offloaded} of {sealed} sealed chunks offloaded: {snap:?}"
        );
    }
}

/// A consumer that departs with offloaded chunks still in its inbox
/// charges their packets as delivery drops to the chunks' home queue,
/// where their capture, delivery and recycle are counted too — so the
/// delivery law holds per queue, not only summed over the engine.
#[test]
fn departing_consumer_charges_inboxed_offloads_to_their_home() {
    const CHUNKS: u64 = 8;
    for backend in backends() {
        let name = backend.name();
        // T = 0: a chunk sealed while its home queue has a backlog goes
        // to the shorter claim queue. No partial chunks: the timeout
        // never fires and the traffic fills whole chunks.
        let mut cfg = WireCapConfig::advanced(32, 64, 0.0, 0);
        cfg.capture_timeout_ns = 10_000_000_000;
        let upcast: Arc<dyn CaptureBackend> = backend.clone();
        let engine = LiveWireCap::builder()
            .backend(upcast)
            .config(cfg)
            .groups(BuddyGroups::single(2))
            .start();
        inject(backend.as_ref(), one_flow(0..CHUNKS * 32), 0);
        // With no consumer yet, every sealed chunk waits in a claim
        // queue, some of them offloaded to the idle buddy.
        while engine
            .snapshot()
            .queues
            .iter()
            .map(|q| q.capture_queue_len)
            .sum::<u64>()
            < CHUNKS
        {
            std::thread::sleep(Duration::from_micros(100));
        }
        let home = (0..2)
            .max_by_key(|&q| engine.telemetry(q).captured_packets)
            .unwrap();
        // The buddy's consumer claims its whole queue into its inbox,
        // delivers one chunk and departs with the rest.
        let mut departing = engine.consumer(1 - home);
        let first = departing.try_chunk().expect("offloads wait on the buddy");
        assert!(first.offloaded(), "{name}");
        departing.recycle(first);
        drop(departing);
        backend.stop().expect("stop backend");
        for q in 0..2 {
            let mut c = engine.consumer(q);
            while let Some(chunk) = c.next_chunk() {
                c.recycle(chunk);
            }
        }
        let observer = engine.observer();
        engine.shutdown();
        let snap = observer.snapshot();
        assert_conserved(&snap, CHUNKS * 32);
        let dropped: u64 = snap.queues.iter().map(|q| q.delivery_drop_packets).sum();
        assert!(dropped > 0, "{name}: the departing inbox held no chunk");
        for q in &snap.queues {
            assert_eq!(
                q.delivered_packets + q.delivery_drop_packets,
                q.captured_packets,
                "{name}: queue {} broke `delivered + delivery_drop = captured`",
                q.queue
            );
        }
    }
}
