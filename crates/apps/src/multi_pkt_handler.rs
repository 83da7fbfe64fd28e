//! `multi_pkt_handler` — the multi-threaded experiment application.
//!
//! "It is a multi-threaded version of pkt_handler, called
//! multi_pkt_handler, which can spawn one or multiple pkt_handler threads
//! that share the same address space." (§4)
//!
//! This is the live-mode driver: one `pkt_handler` thread per receive
//! queue ([`run`]) or a consumer pool with flow analytics
//! ([`run_pooled_flows`]), each a handler over [`crate::live::drive`].
//! Because all threads belong to one process, the engine forms one
//! buddy group over all queues — the advanced-mode setup of §4.
//!
//! The engine it starts honors the live-telemetry environment
//! (`WIRECAP_TELEMETRY_LISTEN`, `WIRECAP_TELEMETRY_SAMPLE_MS`,
//! `WIRECAP_TELEMETRY_FLIGHT_DIR` — DESIGN.md §4.9), so any run of
//! this driver can be scraped while it processes.

use crate::live::{drive, Consumers, LiveRun};
use crate::pkt_handler::PktHandler;
use flowstat::{merge_top_k, FlowDeltas, FlowSink, FlowSinkConfig};
use netproto::{FlowKey, Packet};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use telemetry::counters::FlowSide;
use wirecap::{ChunkView, LoopbackBackend, WireCapConfig};

/// Results from one pkt_handler thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerReport {
    /// Queue the thread consumed from.
    pub queue: usize,
    /// Packets processed.
    pub processed: u64,
    /// Packets that matched the filter.
    pub matched: u64,
}

/// Runs `handler` over every packet of a chunk, zero-copy on the
/// borrowed arena slices; returns how many matched the filter.
fn filter_chunk(handler: &mut PktHandler, view: ChunkView<'_>) -> u64 {
    view.iter().filter(|p| handler.handle_bytes(p.data)).count() as u64
}

/// Runs `traffic` through a live WireCAP engine over `backend` with one
/// `pkt_handler` thread per queue, and reports per-thread counts.
pub fn run(
    backend: Arc<dyn LoopbackBackend>,
    cfg: WireCapConfig,
    x: u32,
    traffic: impl IntoIterator<Item = Packet>,
) -> Vec<HandlerReport> {
    let queues = backend.queue_count();
    let counts: Arc<Vec<[AtomicU64; 2]>> =
        Arc::new((0..queues).map(|_| Default::default()).collect());
    let consumers = {
        let counts = Arc::clone(&counts);
        Consumers::per_queue(move |q| {
            let counts = Arc::clone(&counts);
            let mut handler = PktHandler::paper(x);
            move |view: ChunkView<'_>| {
                let [processed, matched] = &counts[q];
                processed.fetch_add(view.len() as u64, Ordering::Relaxed);
                matched.fetch_add(filter_chunk(&mut handler, view), Ordering::Relaxed);
            }
        })
    };
    drive(backend, cfg, consumers, traffic, 0);
    counts
        .iter()
        .enumerate()
        .map(|(queue, [processed, matched])| HandlerReport {
            queue,
            processed: processed.load(Ordering::Relaxed),
            matched: matched.load(Ordering::Relaxed),
        })
        .collect()
}

/// Results from one flow-tracking `multi_pkt_handler` run.
#[derive(Debug)]
pub struct FlowReport {
    /// Packets the handlers processed (across all workers).
    pub processed: u64,
    /// Packets that matched the filter.
    pub matched: u64,
    /// Frames that did not parse to an IPv4 5-tuple.
    pub unparsed: u64,
    /// Packets recorded into flow tables (== processed - unparsed).
    pub tracked_packets: u64,
    /// Flows live across all workers' tables at end of run.
    pub live_flows: u64,
    /// Flows displaced by LRU eviction across all workers.
    pub evicted_flows: u64,
    /// Packets folded into eviction aggregates across all workers.
    pub evicted_packets: u64,
    /// Occupied non-matching slots scanned across all workers.
    pub hash_collisions: u64,
    /// The merged global top flows, strongest first.
    pub top: Vec<(FlowKey, u64)>,
    /// The live run: rate, snapshot and per-worker pool reports.
    pub run: LiveRun,
}

/// The flow stage's per-chunk flush: records one chunk's `frames` into
/// a worker's `sink`, then adds the sink's counter deltas to `flow`, the
/// chunk's home-queue shard. The adds are multi-writer because several
/// workers may drain one hot queue. Returns the deltas, whose
/// `occupancy` level the caller publishes as it sees fit.
pub fn record_chunk_flows<'a>(
    sink: &mut FlowSink,
    frames: impl IntoIterator<Item = &'a [u8]>,
    flow: &FlowSide,
) -> FlowDeltas {
    sink.record_frames(frames);
    let deltas = sink.drain_deltas();
    flow.flow_tracked_packets.add(deltas.packets);
    flow.flow_evicted_flows.add(deltas.evicted_flows);
    flow.flow_evicted_packets.add(deltas.evicted_packets);
    flow.flow_hash_collisions.add(deltas.hash_collisions);
    deltas
}

/// Runs `traffic` through a [`wirecap::ConsumerPool`] of `workers`
/// threads over all queues (DESIGN.md §4.11) with online flow
/// analytics: each worker keeps a [`PktHandler`] and a [`FlowSink`]
/// (exact set-associative flow table + top-K candidate tracker), and
/// after every chunk flushes its counter deltas into the home queue's
/// `flow` telemetry shard. After the pool drains, the per-worker
/// trackers merge into the global top `k` (DESIGN.md §4.15).
pub fn run_pooled_flows(
    backend: Arc<dyn LoopbackBackend>,
    cfg: WireCapConfig,
    x: u32,
    workers: usize,
    flow_cfg: FlowSinkConfig,
    k: usize,
    traffic: impl IntoIterator<Item = Packet>,
) -> FlowReport {
    let processed = Arc::new(AtomicU64::new(0));
    let matched = Arc::new(AtomicU64::new(0));
    // One sink per worker. The pool guarantees one delivery at a time
    // per worker index, so each Mutex is uncontended — it exists only
    // to make the shared Vec Sync.
    let sinks: Arc<Vec<Mutex<FlowSink>>> = Arc::new(
        (0..workers.max(1))
            .map(|_| Mutex::new(FlowSink::new(flow_cfg)))
            .collect(),
    );
    let consumers = {
        let processed = Arc::clone(&processed);
        let matched = Arc::clone(&matched);
        let sinks = Arc::clone(&sinks);
        Consumers::pool(workers, move |engine| {
            let reg = engine.registry_handle();
            // Per-worker occupancy levels: each flush republishes the
            // global sum, so the gauge is a consistent engine-wide
            // level no matter how workers map onto queues.
            let occupancy: Vec<AtomicU64> =
                (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect();
            move |d| {
                thread_local! {
                    static HANDLER: RefCell<Option<PktHandler>> = const { RefCell::new(None) };
                }
                HANDLER.with(|slot| {
                    let mut slot = slot.borrow_mut();
                    let handler = slot.get_or_insert_with(|| PktHandler::paper(x));
                    matched.fetch_add(filter_chunk(handler, *d.view()), Ordering::Relaxed);
                    processed.fetch_add(d.len() as u64, Ordering::Relaxed);
                });
                let deltas = record_chunk_flows(
                    &mut sinks[d.worker()].lock().expect("flow sink poisoned"),
                    d.view().iter().map(|p| p.data),
                    &reg.queue(d.home()).flow.0,
                );
                occupancy[d.worker()].store(deltas.occupancy, Ordering::Relaxed);
                let total: u64 = occupancy.iter().map(|o| o.load(Ordering::Relaxed)).sum();
                reg.queue(0).flow.0.flow_table_occupancy.set(total);
            }
        })
    };
    let run = drive(backend, cfg, consumers, traffic, 0);
    let Ok(sinks) = Arc::try_unwrap(sinks) else {
        unreachable!("pool joined, sinks unshared");
    };
    let sinks: Vec<FlowSink> = sinks
        .into_iter()
        .map(|m| m.into_inner().expect("flow sink poisoned"))
        .collect();
    let refs: Vec<&FlowSink> = sinks.iter().collect();
    let mut report = FlowReport {
        processed: processed.load(Ordering::Relaxed),
        matched: matched.load(Ordering::Relaxed),
        unparsed: 0,
        tracked_packets: 0,
        live_flows: 0,
        evicted_flows: 0,
        evicted_packets: 0,
        hash_collisions: 0,
        top: merge_top_k(&refs, k),
        run,
    };
    for s in &sinks {
        let st = s.stats();
        report.unparsed += s.unparsed();
        report.tracked_packets += st.tracked_packets;
        report.live_flows += st.live_flows;
        report.evicted_flows += st.evicted_flows;
        report.evicted_packets += st.evicted_packets;
        report.hash_collisions += st.hash_collisions;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use netproto::PacketBuilder;
    use nicsim::livenic::LiveNic;
    use std::net::Ipv4Addr;
    use wirecap::NicSimBackend;

    fn cfg() -> WireCapConfig {
        let mut cfg = WireCapConfig::basic(64, 32, 0);
        cfg.capture_timeout_ns = 1_000_000;
        cfg
    }

    fn nic() -> Arc<dyn LoopbackBackend> {
        NicSimBackend::new(LiveNic::new(2, 4096))
    }

    /// `n` packets cycling through `flow(i)`'s flows.
    fn traffic(n: u64, flow: impl Fn(u64) -> FlowKey) -> impl Iterator<Item = Packet> {
        let mut b = PacketBuilder::new();
        (0..n).map(move |i| b.build_packet(i * 1_000, &flow(i), 100).unwrap())
    }

    fn elephant() -> FlowKey {
        FlowKey::udp(
            Ipv4Addr::new(131, 225, 2, 9),
            7_777,
            Ipv4Addr::new(8, 8, 8, 8),
            53,
        )
    }

    #[test]
    fn all_threads_process_their_share() {
        let spread = |i: u64| {
            FlowKey::udp(
                Ipv4Addr::new(131, 225, 2, (i % 250) as u8 + 1),
                1000 + i as u16,
                Ipv4Addr::new(8, 8, 8, 8),
                53,
            )
        };
        let reports = run(nic(), cfg(), 3, traffic(1000, spread));
        let processed: u64 = reports.iter().map(|r| r.processed).sum();
        let matched: u64 = reports.iter().map(|r| r.matched).sum();
        assert_eq!(processed, 1000);
        assert_eq!(matched, 1000); // every packet matches the paper filter
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn flow_mode_tracks_flows_and_finds_the_elephant() {
        // Two thirds elephant, one third spread over mice.
        let mix = |i: u64| {
            if !i.is_multiple_of(3) {
                elephant()
            } else {
                FlowKey::udp(
                    Ipv4Addr::new(10, 0, 1, (i % 200) as u8 + 1),
                    2_000 + (i % 200) as u16,
                    Ipv4Addr::new(8, 8, 8, 8),
                    53,
                )
            }
        };
        let flow_cfg = FlowSinkConfig {
            table_capacity: 4096,
            topk_capacity: 64,
        };
        let report = run_pooled_flows(nic(), cfg(), 3, 2, flow_cfg, 4, traffic(900, mix));
        assert_eq!(report.processed, 900);
        assert_eq!(report.unparsed, 0);
        assert_eq!(report.tracked_packets, 900);
        assert_eq!(report.evicted_flows, 0, "table sized to hold every flow");
        assert_eq!(report.top[0], (elephant(), 600));
        let live_sum: u64 = report.tracked_packets - report.evicted_packets;
        assert_eq!(live_sum, 900, "every packet sits in a live flow count");
    }

    #[test]
    fn flow_mode_conserves_on_one_hot_queue() {
        let flow_cfg = FlowSinkConfig {
            table_capacity: 1024,
            topk_capacity: 16,
        };
        let report = run_pooled_flows(
            nic(),
            cfg(),
            3,
            3,
            flow_cfg,
            1,
            traffic(800, |_| elephant()),
        );
        assert_eq!(report.processed, 800);
        assert_eq!(report.matched, 800);
        assert_eq!(report.tracked_packets, 800);
        assert_eq!(report.top, vec![(elephant(), 800)]);
        assert_eq!(report.run.workers.len(), 3);
    }
}
