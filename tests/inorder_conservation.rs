//! Claim-pool accounting under randomized interleavings, with and
//! without in-order delivery (DESIGN.md §4.11).
//!
//! Companion to `steal_conservation.rs`: N pool workers drain the
//! *same* queues' sealed streams through lock-free claim words, and
//! `in_order` re-serializes them per home queue. The audited
//! invariants:
//!
//! * Σ `delivered_packets` + Σ `delivery_drop_packets` ==
//!   Σ `captured_packets` (every captured chunk reached a handler or
//!   was explicitly dropped by a forced stop — including chunks caught
//!   mid-claim or stranded behind a gap in the reorder buffer),
//! * Σ `recycled_chunks` == Σ `sealed_chunks` (every slot came home),
//! * with `in_order`: per home queue, the handler observes strictly
//!   increasing sequence numbers, and no chunk is left in the reorder
//!   buffer after shutdown (`reorder_occupancy` drains to zero).
//!
//! Randomized worker stalls (a sleep on a pseudo-random subset of
//! chunks) force reorder-buffer occupancy and claim contention, so the
//! in-order path is exercised with real gaps, not just the fast path.
//! The pool geometry is randomized too: small pools down to one spare
//! chunk past the descriptor segments face the same interleavings —
//! including forced stops — as the default.

use apps::live::inject;
use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use telemetry::EngineSnapshot;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::{PoolWorkerReport, WireCapConfig};

/// One claim-pool run. `stall_us > 0` makes the handler
/// sleep on every chunk whose sequence number lands on a small residue
/// class, staggering workers so in-order runs accumulate real gaps.
/// `force_stop` tears the pool down right after the claim queues close,
/// exercising the claim-drain and reorder-strand sweep. `(m, r)` is the
/// pool geometry: cells per chunk and chunks per queue.
#[allow(clippy::too_many_arguments)]
fn run_pool(
    total: u64,
    queues: usize,
    workers: usize,
    flows: u16,
    stall_us: u64,
    in_order: bool,
    force_stop: bool,
    (m, r): (usize, usize),
) -> (EngineSnapshot, Vec<PoolWorkerReport>, u64) {
    let nic = NicSimBackend::new(LiveNic::new(queues, 8192));
    let mut cfg = WireCapConfig::basic(m, r, 0);
    cfg.capture_timeout_ns = 1_000_000;
    cfg.in_order = in_order;
    let groups = BuddyGroups::single(queues);
    let group = groups.group_of(0).cloned().expect("queue 0 grouped");
    let engine = LiveWireCap::builder()
        .backend(nic.clone())
        .config(cfg)
        .groups(groups)
        .start();

    let handled = Arc::new(AtomicU64::new(0));
    // Last sequence number the handler saw per home queue (u64::MAX =
    // none yet). In-order delivery is serialized per queue by the
    // reorder pump, so a swap-and-compare is race-free.
    let last_seq: Arc<Vec<AtomicU64>> =
        Arc::new((0..queues).map(|_| AtomicU64::new(u64::MAX)).collect());
    let pool = {
        let handled = Arc::clone(&handled);
        let last_seq = Arc::clone(&last_seq);
        engine.consumer_pool(&group, workers, move |d| {
            let mut bytes = 0usize;
            for p in d.view().iter() {
                bytes += p.data.len();
            }
            assert!(bytes > 0 || d.is_empty());
            if in_order {
                let prev = last_seq[d.home()].swap(d.seq(), Ordering::SeqCst);
                assert!(
                    prev == u64::MAX || d.seq() > prev,
                    "queue {} delivered seq {} after {}",
                    d.home(),
                    d.seq(),
                    prev
                );
            }
            handled.fetch_add(d.len() as u64, Ordering::Relaxed);
            if stall_us > 0 && d.seq() % 5 == 0 {
                std::thread::sleep(Duration::from_micros(stall_us));
            }
        })
    };

    let mut b = PacketBuilder::new();
    let flows = u64::from(flows.max(1));
    let traffic = (0..total).map(move |i| {
        let flow = FlowKey::udp(
            Ipv4Addr::new(10, 9, (i % flows) as u8, 9),
            9_000 + (i % flows) as u16,
            Ipv4Addr::new(131, 225, 2, 1),
            443,
        );
        b.build_packet(i * 1_000, &flow, 96).unwrap()
    });
    inject(nic.as_ref(), traffic, 0);
    nic.nic().stop();

    // `shutdown()` abandons whatever is still in the NIC ring (the
    // backpressure design leaves overflow to the hardware's drop
    // accounting), so conservation against `total` is only meaningful
    // once capture has drained the ring. In-order runs make exhaustion
    // likely: the reorder pump serializes stalled handlers, chunks pool
    // up in the buffer, and capture parks out of free slots — wait for
    // every injected packet to be captured or capture-dropped first.
    // Forced stops still find work queued in the claim and reorder
    // buffers, so the drop-drain path stays exercised.
    let observer = engine.observer();
    loop {
        let s = observer.snapshot();
        let seen: u64 = s
            .queues
            .iter()
            .map(|q| q.captured_packets + q.capture_drop_packets)
            .sum();
        if seen >= total {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    engine.shutdown();
    let reports = if force_stop { pool.stop() } else { pool.join() };
    let snap = observer.snapshot();
    (snap, reports, handled.load(Ordering::Relaxed))
}

fn assert_conserved(snap: &EngineSnapshot, total: u64) {
    if let Err(broken) = snap.check_conservation(total) {
        panic!("{broken}: {snap:?}");
    }
    let stranded: u64 = snap.queues.iter().map(|q| q.reorder_occupancy).sum();
    assert_eq!(stranded, 0, "chunks stranded in reorder buffers: {snap:?}");
}

/// Deterministic in-order smoke test (tier-1): skewed single-flow
/// traffic on one hot queue, three claim workers with staggered
/// stalls, strictly increasing delivery asserted in the handler.
#[test]
fn inorder_claims_deliver_sequenced_and_conserve() {
    let (snap, reports, handled) = run_pool(1_600, 2, 3, 1, 120, true, false, (32, 64));
    assert_conserved(&snap, 1_600);
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    assert_eq!(handled, delivered, "handler saw every delivered packet");
    assert_eq!(
        reports.iter().map(|r| r.packets).sum::<u64>(),
        delivered,
        "worker reports disagree with telemetry"
    );
    assert_eq!(handled, 1_600, "natural join delivers everything");
}

/// A forced stop mid-claim drops whatever is still queued or stranded
/// behind a reorder gap, and the drops are accounted — no chunk is
/// left in the buffer, no slot leaks. Runs on the smallest pool (one
/// spare chunk past the 32 descriptor segments), so capture is
/// starved of free slots while the forced-stop sweep runs.
#[test]
fn forced_stop_drains_reorder_buffer_without_leaks() {
    let (snap, reports, handled) = run_pool(2_000, 2, 3, 4, 150, true, true, (32, 33));
    assert_conserved(&snap, 2_000);
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    assert_eq!(handled, delivered);
    assert_eq!(reports.iter().map(|r| r.packets).sum::<u64>(), delivered);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation and per-queue delivery order hold across
    /// randomized claim interleavings: any worker count, any flow
    /// spread, any stall pattern, graceful or forced teardown,
    /// ordered or unordered, at any pool geometry: M = 32 with R from
    /// the floor N/M + 1 = 33 up to 64, or M = 16 with R = 65.
    #[test]
    fn claim_accounting_survives_random_interleavings(
        total in 400u64..2_500,
        queues in 1usize..4,
        workers in 1usize..5,
        flows in 1u16..8,
        stall_us in 0u64..150,
        in_order in any::<bool>(),
        force_stop in any::<bool>(),
        geometry in prop_oneof![(33usize..=64).prop_map(|r| (32, r)), Just((16, 65))],
    ) {
        let (snap, reports, handled) =
            run_pool(total, queues, workers, flows, stall_us, in_order, force_stop, geometry);
        assert_conserved(&snap, total);
        let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
        prop_assert_eq!(handled, delivered);
        prop_assert_eq!(reports.iter().map(|r| r.packets).sum::<u64>(), delivered);
        prop_assert_eq!(reports.len(), workers);
        if !force_stop {
            prop_assert_eq!(handled, total, "natural join delivers everything");
        }
    }
}
