//! Engine-conformance suite: every capture engine, same contracts.
//!
//! The harness treats all engines uniformly through the `CaptureEngine`
//! trait; these tests pin down the contract every implementation must
//! honor — empty runs, idle gaps, repeated finish, stats consistency at
//! every intermediate point, and independence from advance() cadence.

use apps::harness::EngineKind;
use engines::EngineConfig;
use sim::SimTime;
use wirecap::WireCapConfig;

fn all_engines() -> Vec<EngineKind> {
    vec![
        EngineKind::Dna,
        EngineKind::Netmap,
        EngineKind::PfRing,
        EngineKind::PfPacket,
        EngineKind::Psioe,
        EngineKind::Dpdk,
        EngineKind::DpdkAppOffload(0.6),
        EngineKind::WireCap(WireCapConfig::basic(64, 20, 300)),
        EngineKind::WireCap(WireCapConfig::advanced(64, 20, 0.6, 300)),
    ]
}

#[test]
fn empty_run_is_clean() {
    for kind in all_engines() {
        let mut e = kind.build(2, EngineConfig::paper(300));
        let end = e.finish(SimTime(0));
        assert_eq!(end, SimTime(0), "{}", e.name());
        let s = e.total_stats();
        assert_eq!(s.offered, 0, "{}", e.name());
        assert!(s.is_consistent(), "{}", e.name());
    }
}

#[test]
fn long_idle_gaps_do_not_bank_capacity_or_lose_packets() {
    for kind in all_engines() {
        let mut e = kind.build(1, EngineConfig::paper(300));
        // Three widely spaced packets: a second of idle between each.
        for i in 0..3u64 {
            e.on_arrival(SimTime(i * 1_000_000_000), 0, 64);
        }
        e.finish(SimTime(10_000_000_000));
        let s = e.total_stats();
        assert_eq!(s.offered, 3, "{}", e.name());
        assert_eq!(s.delivered, 3, "{}", e.name());
        assert_eq!(s.overall_drop_rate(), 0.0, "{}", e.name());
    }
}

#[test]
fn finish_is_idempotent() {
    for kind in all_engines() {
        let mut e = kind.build(1, EngineConfig::paper(300));
        for i in 0..500u64 {
            e.on_arrival(SimTime(i * 10_000), 0, 64);
        }
        let end1 = e.finish(SimTime(500 * 10_000));
        let stats1 = e.total_stats();
        let end2 = e.finish(end1);
        let stats2 = e.total_stats();
        assert_eq!(stats1, stats2, "{}", e.name());
        assert_eq!(end1, end2, "{}", e.name());
    }
}

#[test]
fn stats_consistent_at_every_intermediate_point() {
    for kind in all_engines() {
        let mut e = kind.build(2, EngineConfig::paper(300));
        for i in 0..2_000u64 {
            e.on_arrival(SimTime(i * 5_000), (i % 2) as usize, 64);
            if i % 97 == 0 {
                let s = e.total_stats();
                assert!(s.is_consistent(), "{} at i={i}: {s:?}", e.name());
            }
        }
        e.finish(SimTime(2_000 * 5_000));
        assert!(e.total_stats().is_consistent(), "{}", e.name());
    }
}

#[test]
fn interleaved_advance_calls_do_not_change_outcomes() {
    // Calling advance() between arrivals (as a poll-driven harness might)
    // must not change the final accounting.
    for kind in all_engines() {
        let cfg = EngineConfig::paper(300);
        let mut plain = kind.build(1, cfg);
        let mut chatty = kind.build(1, cfg);
        for i in 0..1_000u64 {
            let t = SimTime(i * 20_000);
            plain.on_arrival(t, 0, 64);
            chatty.advance(t);
            chatty.on_arrival(t, 0, 64);
            chatty.advance(SimTime(t.as_nanos() + 1_000));
        }
        plain.finish(SimTime(1_000 * 20_000));
        chatty.finish(SimTime(1_000 * 20_000));
        let a = plain.total_stats();
        let b = chatty.total_stats();
        // The fluid integrators floor whole completions at whatever step
        // boundaries they are advanced across, so a ±2-packet wobble at
        // different cadences is inherent; anything larger would mean the
        // cadence changed behaviour.
        let drops_a = a.capture_drops + a.delivery_drops;
        let drops_b = b.capture_drops + b.delivery_drops;
        assert!(
            drops_a.abs_diff(drops_b) <= 2,
            "{}: {a:?} vs {b:?}",
            plain.name()
        );
        assert!(
            a.delivered.abs_diff(b.delivered) <= 2,
            "{}: delivered {} vs {}",
            plain.name(),
            a.delivered,
            b.delivered
        );
    }
}

#[test]
fn names_are_distinct_and_stable() {
    let names: Vec<String> = all_engines()
        .iter()
        .map(|k| k.build(1, EngineConfig::paper(0)).name())
        .collect();
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(
        unique.len(),
        names.len(),
        "duplicate engine names: {names:?}"
    );
}

/// Live-backend conformance: the real-thread engine behind every
/// [`wirecap::CaptureBackend`] must honor the same contracts — the
/// conservation laws, the zero-copy hot path, and clean teardown —
/// whether frames come from `nicsim`'s owned-packet rings or from
/// `shmring`'s shared-memory descriptor rings.
mod live_backends {
    use apps::live::{drive, inject, Consumers};
    use netproto::{FlowKey, Packet, PacketBuilder};
    use nicsim::livenic::LiveNic;
    use shmring::ShmRingNic;
    use std::net::Ipv4Addr;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;
    use wirecap::arena::arena_allocations;
    use wirecap::buddy::BuddyGroups;
    use wirecap::live::LiveWireCap;
    use wirecap::{CaptureBackend, LoopbackBackend, NicSimBackend, WireCapConfig};

    /// Serializes the live tests in this binary: `arena_allocations()`
    /// is a global counter, so the zero-copy assertion must not race
    /// another live engine's start.
    static LIVE: Mutex<()> = Mutex::new(());

    /// Every loopback-capable backend, same geometry. A new conformant
    /// backend earns its row here and nowhere else.
    fn backends(queues: usize, depth: usize) -> Vec<Arc<dyn LoopbackBackend>> {
        vec![
            NicSimBackend::new(LiveNic::new(queues, depth)) as Arc<dyn LoopbackBackend>,
            ShmRingNic::new(queues, depth) as Arc<dyn LoopbackBackend>,
        ]
    }

    fn live_cfg() -> WireCapConfig {
        let mut cfg = WireCapConfig::basic(64, 32, 0);
        cfg.capture_timeout_ns = 1_500_000;
        cfg
    }

    fn flow(i: u16) -> FlowKey {
        FlowKey::udp(
            Ipv4Addr::new(131, 225, 2, (i % 200) as u8 + 1),
            9_000 + i,
            Ipv4Addr::new(10, 0, 0, 1),
            443,
        )
    }

    /// Packets `range`, packet `i` on flow `flow_of(i)`.
    fn packets(
        range: std::ops::Range<u16>,
        flow_of: impl Fn(u16) -> FlowKey,
    ) -> impl Iterator<Item = Packet> {
        let mut b = PacketBuilder::new();
        range.map(move |i| b.build_packet(u64::from(i), &flow_of(i), 128).unwrap())
    }

    #[test]
    fn conservation_laws_hold_on_every_backend() {
        let _live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        for backend in backends(2, 4096) {
            let name = backend.name();
            let consumers = Consumers::per_queue(|_| |_| {});
            let run = drive(backend, live_cfg(), consumers, packets(0..3_000, flow), 0);
            let t = run.snapshot.total();
            // offered folds in wire-side drops from the retried injects;
            // net of those, every packet that landed was offered once.
            assert_eq!(t.offered_packets - t.nic_drop_packets, 3_000, "{name}");
            assert_eq!(t.captured_packets + t.capture_drop_packets, 3_000, "{name}");
            assert_eq!(
                t.delivered_packets + t.delivery_drop_packets,
                t.captured_packets,
                "{name}"
            );
            assert_eq!(run.delivered, t.captured_packets, "{name}");
            assert_eq!(t.recycled_chunks, t.sealed_chunks, "{name}");
        }
    }

    /// The harness injector against an 8-deep ring and a slow consumer:
    /// the ring refuses injections, every refusal is retried until the
    /// packet lands, and the run still conserves.
    #[test]
    fn harness_retries_every_refused_injection() {
        let _live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        for backend in backends(1, 8) {
            let name = backend.name();
            // 3 000 packets outgrow the 32 x 64-cell pool plus the
            // ring, so capture must backpressure into refusals. That
            // needs the consumer slower than the injector: at 5 ms per
            // chunk it drains about 13 packets/ms, well under what even
            // an unoptimized build injects.
            let consumers =
                Consumers::per_queue(|_| |_| std::thread::sleep(Duration::from_millis(5)));
            let run = drive(
                backend,
                live_cfg(),
                consumers,
                packets(0..3_000, |_| flow(7)),
                0,
            );
            let t = run.snapshot.total();
            assert_eq!(run.offered, 3_000, "{name}");
            assert!(t.nic_drop_packets > 0, "{name}: the ring never refused");
            assert_eq!(
                t.offered_packets - t.nic_drop_packets,
                3_000,
                "{name}: a refused injection was not retried"
            );
        }
    }

    #[test]
    fn hot_path_allocates_no_arena_buffers_on_any_backend() {
        let _live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        for backend in backends(1, 4096) {
            let name = backend.name();
            let upcast: Arc<dyn CaptureBackend> = backend.clone();
            let engine = LiveWireCap::builder()
                .backend(upcast)
                .config(live_cfg())
                .groups(BuddyGroups::isolated(1))
                .start();
            // All arena buffers exist as of here; capture and view-based
            // consumption must not add any, no matter the backend.
            let baseline = arena_allocations();
            let mut c = engine.consumer(0);
            let mut consumed = 0u64;
            let mut bytes_seen = 0u64;
            for burst in 0..32u16 {
                inject(
                    backend.as_ref(),
                    packets(burst * 64..(burst + 1) * 64, |_| flow(7)),
                    0,
                );
                // Drain as we go so the small pool never exhausts.
                while let Some(chunk) = c.try_chunk() {
                    for p in c.view(&chunk).iter() {
                        bytes_seen += p.data.len() as u64;
                    }
                    consumed += chunk.len() as u64;
                    c.recycle(chunk);
                }
            }
            backend.stop().expect("stop backend");
            while let Some(chunk) = c.next_chunk() {
                for p in c.view(&chunk).iter() {
                    bytes_seen += p.data.len() as u64;
                }
                consumed += chunk.len() as u64;
                c.recycle(chunk);
            }
            let dropped = engine.telemetry(0).capture_drop_packets;
            engine.shutdown();
            assert_eq!(consumed + dropped, 2_048, "{name}");
            assert_eq!(bytes_seen, consumed * 128, "{name}");
            assert_eq!(
                arena_allocations(),
                baseline,
                "{name}: the hot path must not allocate arena buffers"
            );
        }
    }

    #[test]
    fn teardown_joins_cleanly_and_reports_stopped() {
        let _live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        for backend in backends(2, 1024) {
            let name = backend.name();
            let upcast: Arc<dyn CaptureBackend> = backend.clone();
            let engine = LiveWireCap::builder()
                .backend(upcast)
                .config(live_cfg())
                .groups(BuddyGroups::isolated(2))
                .start();
            let consumers: Vec<_> = (0..2)
                .map(|q| {
                    let mut c = engine.consumer(q);
                    std::thread::spawn(move || {
                        let mut n = 0u64;
                        while let Some(chunk) = c.next_chunk() {
                            n += chunk.len() as u64;
                            c.recycle(chunk);
                        }
                        n
                    })
                })
                .collect();
            inject(backend.as_ref(), packets(0..500, flow), 0);
            backend.stop().expect("stop backend");
            assert!(backend.is_stopped(), "{name}");
            // Stop is idempotent, and a late inject must not panic (the
            // frame may land or drop; either is conformant).
            backend.stop().expect("second stop");
            let mut b = PacketBuilder::new();
            let _ = backend.inject(b.build_packet(9_999, &flow(9), 64).unwrap());
            let consumed: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            let t = engine.snapshot().total();
            engine.shutdown();
            assert_eq!(consumed, t.captured_packets, "{name}");
            assert!(
                t.captured_packets + t.capture_drop_packets >= 500,
                "{name}: teardown lost pre-stop packets"
            );
            assert_eq!(t.recycled_chunks, t.sealed_chunks, "{name}");
        }
    }
}
