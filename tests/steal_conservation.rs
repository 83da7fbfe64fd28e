//! Consumer-pool accounting under randomized interleavings.
//!
//! Mirrors `offload_conservation.rs` one layer down: where that test
//! audits buddy-group offloading between capture threads, this one
//! audits load sharing between pool workers, which claim chunks from
//! every queue of the group — including queues outside their own
//! shard (the pool's form of work stealing). The invariants:
//!
//! * Σ `delivered_packets` + Σ `delivery_drop_packets` ==
//!   Σ `captured_packets` (every captured packet reached a handler or
//!   is explicitly counted as dropped by a forced pool stop),
//! * Σ `recycled_chunks` == Σ `sealed_chunks` (every slot came home —
//!   claiming moves handles, never slots, and recycling stays
//!   home-pool-only).
//!
//! A deterministic two-thread smoke test pins down the standalone
//! deque primitive (tier-1, run by `scripts/check.sh`), a deterministic
//! skewed-traffic run pins that off-shard claiming actually fires, and
//! a proptest drives
//! randomized worker/queue/handler-latency schedules over the full
//! pool.

use apps::live::inject;
use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use telemetry::EngineSnapshot;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::steal::{steal_deque, Steal};
use wirecap::NicSimBackend;
use wirecap::{PoolWorkerReport, WireCapConfig};

/// Deterministic two-thread deque exercise: the owner pushes and pops
/// from the bottom while one thief steals from the top; every pushed
/// item comes out exactly once, on exactly one side.
#[test]
fn steal_smoke_two_threads_conserve_items() {
    const N: u64 = 50_000;
    let (mut owner, stealer) = steal_deque::<u64>(N as usize);
    let thief = std::thread::spawn(move || {
        let mut got = Vec::new();
        loop {
            match stealer.steal() {
                Steal::Success(v) => {
                    if v == u64::MAX {
                        return got;
                    }
                    got.push(v);
                }
                Steal::Retry => {}
                Steal::Empty => std::thread::yield_now(),
            }
        }
    });
    let mut kept = Vec::new();
    for i in 0..N {
        owner.push(i).expect("deque sized to hold every item");
        // Interleave pops so both ends are contended.
        if i % 3 == 0 {
            if let Some(v) = owner.pop() {
                kept.push(v);
            }
        }
    }
    while let Some(v) = owner.pop() {
        kept.push(v);
    }
    // Sentinel: the deque is empty now, so the thief sees it next.
    owner.push(u64::MAX).unwrap();
    let mut stolen = thief.join().unwrap();
    assert!(owner.is_empty());
    kept.append(&mut stolen);
    kept.sort_unstable();
    assert_eq!(kept.len() as u64, N, "items lost or duplicated");
    for (i, v) in kept.iter().enumerate() {
        assert_eq!(*v, i as u64, "item set corrupted at {i}");
    }
}

/// One pool run: `total` packets spread over `flows` flows into a
/// `queues`-queue NIC, consumed by a `workers`-worker pool whose
/// handler sleeps `work_us` per chunk. When `force_stop` is set the
/// pool is torn down right after the claim queues close instead of
/// joining naturally, exercising the delivery-drop drain path. Also
/// returns every `(home queue, worker)` pair the handler observed.
fn run_pool(
    total: u64,
    queues: usize,
    workers: usize,
    flows: u16,
    work_us: u64,
    force_stop: bool,
) -> (
    EngineSnapshot,
    Vec<PoolWorkerReport>,
    u64,
    BTreeSet<(usize, usize)>,
) {
    let nic = NicSimBackend::new(LiveNic::new(queues, 8192));
    let mut cfg = WireCapConfig::basic(32, 64, 0);
    cfg.capture_timeout_ns = 1_000_000;
    let groups = BuddyGroups::single(queues);
    let group = groups.group_of(0).cloned().expect("queue 0 grouped");
    let engine = LiveWireCap::builder()
        .backend(nic.clone())
        .config(cfg)
        .groups(groups)
        .start();

    let handled = Arc::new(AtomicU64::new(0));
    let deliverers = Arc::new(Mutex::new(BTreeSet::new()));
    let pool = {
        let handled = Arc::clone(&handled);
        let deliverers = Arc::clone(&deliverers);
        engine.consumer_pool(&group, workers, move |d| {
            deliverers.lock().unwrap().insert((d.home(), d.worker()));
            // Touch the payload so the borrow is real, then simulate
            // per-chunk application work.
            let mut bytes = 0usize;
            for p in d.view().iter() {
                bytes += p.data.len();
            }
            assert!(bytes > 0 || d.is_empty());
            handled.fetch_add(d.len() as u64, Ordering::Relaxed);
            if work_us > 0 {
                std::thread::sleep(Duration::from_micros(work_us));
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

    // Shutdown closes the claim queues; the pool then drains to
    // end-of-stream (join) or is forced down with work still queued
    // (stop).
    let observer = engine.observer();
    engine.shutdown();
    let reports = if force_stop { pool.stop() } else { pool.join() };
    let snap = observer.snapshot();
    let deliverers = std::mem::take(&mut *deliverers.lock().unwrap());
    (snap, reports, handled.load(Ordering::Relaxed), deliverers)
}

fn assert_conserved(snap: &EngineSnapshot, total: u64) {
    if let Err(broken) = snap.check_conservation(total) {
        panic!("{broken}: {snap:?}");
    }
}

/// Deterministic pool smoke test (tier-1, run by `scripts/check.sh`):
/// skewed single-flow traffic concentrates every chunk on one queue, so
/// the worker owning the other queue can only contribute by claiming
/// off its shard — and conservation must survive it doing so.
#[test]
fn pool_steals_under_skew_and_conserves() {
    let (snap, reports, handled, deliverers) = run_pool(1_600, 2, 2, 1, 100, false);
    assert_conserved(&snap, 1_600);
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    assert_eq!(handled, delivered, "handler saw every delivered packet");
    assert_eq!(
        reports.iter().map(|r| r.packets).sum::<u64>(),
        delivered,
        "worker reports disagree with telemetry"
    );
    let hot = snap
        .queues
        .iter()
        .max_by_key(|q| q.sealed_chunks)
        .expect("two queues")
        .queue;
    let hot_workers = deliverers.iter().filter(|(home, _)| *home == hot).count();
    assert!(
        hot_workers >= 2,
        "a slow handler must spread the hot queue over both workers: {deliverers:?}"
    );
    let stolen: u64 = reports.iter().map(|r| r.stolen_chunks).sum();
    assert!(
        stolen > 0,
        "the worker without the hot queue must claim off its shard: {reports:?}"
    );
}

/// A forced stop right after the claim queues close recycles queued
/// chunks as delivery drops — conservation holds without a graceful
/// drain.
#[test]
fn forced_pool_stop_accounts_queued_chunks_as_drops() {
    let (snap, reports, handled, _) = run_pool(2_000, 2, 2, 4, 150, true);
    assert_conserved(&snap, 2_000);
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    assert_eq!(handled, delivered);
    assert_eq!(reports.iter().map(|r| r.packets).sum::<u64>(), delivered);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation holds across randomized claim/recycle schedules:
    /// any worker count (including workers with no owned queue), any
    /// flow spread, any handler latency.
    #[test]
    fn pool_accounting_survives_random_interleavings(
        total in 400u64..2_500,
        queues in 1usize..4,
        workers in 1usize..5,
        flows in 1u16..8,
        work_us in 0u64..120,
        force_stop in any::<bool>(),
    ) {
        let (snap, reports, handled, _) =
            run_pool(total, queues, workers, flows, work_us, force_stop);
        assert_conserved(&snap, total);
        let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
        prop_assert_eq!(handled, delivered);
        prop_assert_eq!(reports.iter().map(|r| r.packets).sum::<u64>(), delivered);
        prop_assert_eq!(reports.len(), workers);
    }
}
