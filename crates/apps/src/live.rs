//! `live` — the one live-run harness.
//!
//! The paper runs every live experiment through one tool,
//! `multi_pkt_handler` (§4). Every live run here goes through
//! [`drive`]: build the engine over a loopback backend, start the
//! consumers, inject the traffic on the calling thread, then stop,
//! join, shut down, snapshot and check the engine's conservation laws.
//! Runs whose subject is an abnormal teardown (a forced pool stop, a
//! consumer leaving early, a mid-run scrape) keep their own teardown
//! and use [`inject`] alone.
//!
//! The engine always gets [`BuddyGroups::single`]: groups are read only
//! by buddy placement, which runs only when `cfg.threshold` is set, so
//! one group over all queues is the same engine as isolated queues
//! whenever offloading is off.

use capdisk::{DiskReport, DiskSink, DiskSinkConfig};
use netproto::Packet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{EngineSnapshot, SpanRecord};
use wirecap::buddy::BuddyGroups;
use wirecap::{
    BuddyGroup, ChunkView, LiveWireCap, LoopbackBackend, PoolDelivery, PoolHandler,
    PoolWorkerReport, WireCapConfig,
};

/// The per-chunk handler of one per-queue consumer thread.
pub type ChunkFn = Box<dyn FnMut(ChunkView<'_>) + Send>;

/// Builds the pool's delivery handler once the engine runs (so it can
/// hold engine handles such as [`LiveWireCap::registry_handle`]).
pub type PoolFn = Box<dyn FnOnce(&LiveWireCap) -> Box<PoolHandler>>;

/// Who consumes the captured chunks: one of the engine's three
/// delivery topologies.
pub enum Consumers {
    /// One [`wirecap::LiveConsumer`] thread per queue. The factory is
    /// called once per queue, so each thread owns its handler's state.
    PerQueue(Box<dyn Fn(usize) -> ChunkFn>),
    /// A [`wirecap::ConsumerPool`] of `workers` threads over
    /// [`BuddyGroup::all`] queues.
    Pool {
        /// Pool worker threads.
        workers: usize,
        /// Builds the delivery handler.
        handler: PoolFn,
    },
    /// A capdisk [`DiskSink`] writing every chunk to rotating files.
    Disk(DiskSinkConfig),
}

impl Consumers {
    /// Per-queue consumer threads; `make(q)` builds queue `q`'s
    /// per-chunk handler.
    pub fn per_queue<H>(make: impl Fn(usize) -> H + 'static) -> Self
    where
        H: FnMut(ChunkView<'_>) + Send + 'static,
    {
        Consumers::PerQueue(Box::new(move |q| Box::new(make(q))))
    }

    /// A pool of `workers` threads; `make` builds its delivery handler
    /// from the running engine.
    pub fn pool<H>(workers: usize, make: impl FnOnce(&LiveWireCap) -> H + 'static) -> Self
    where
        H: Fn(PoolDelivery<'_>) + Send + Sync + 'static,
    {
        Consumers::Pool {
            workers,
            handler: Box::new(move |engine| Box::new(make(engine))),
        }
    }
}

/// The outcome of one [`drive`]n run, conservation-checked.
#[derive(Debug)]
pub struct LiveRun {
    /// Packets that landed in the backend: the conservation `offered`.
    pub offered: u64,
    /// Packets the consumers counted as delivered.
    pub delivered: u64,
    /// Wall-clock seconds from the first injection to the consumers'
    /// end-of-stream.
    pub elapsed_s: f64,
    /// The engine snapshot taken after shutdown.
    pub snapshot: EngineSnapshot,
    /// Completed lifecycle spans (empty unless `span_sample_n` is set).
    pub spans: Vec<SpanRecord>,
    /// The pool's per-worker reports (empty unless a pool ran).
    pub workers: Vec<PoolWorkerReport>,
    /// The disk sink's report (`None` unless a disk sink ran).
    pub disk: Option<DiskReport>,
}

/// Injects `traffic` into `backend` and returns how many packets
/// landed. A refused packet is retried after a yield, so every packet
/// lands. `pace_pps == 0` injects as fast as the rings accept;
/// otherwise bursts of 64 packets are released against the wall clock
/// at `pace_pps`.
pub fn inject(
    backend: &dyn LoopbackBackend,
    traffic: impl IntoIterator<Item = Packet>,
    pace_pps: u64,
) -> u64 {
    const PACE_BURST: u64 = 64;
    let start = Instant::now();
    let mut landed = 0u64;
    for pkt in traffic {
        if pace_pps > 0 && landed.is_multiple_of(PACE_BURST) {
            let due = start + Duration::from_secs_f64(landed as f64 / pace_pps as f64);
            while Instant::now() < due {
                // Yield, don't spin: on small machines the pacer shares
                // a core with the capture and consumer threads, and a
                // spin-wait starves the pipeline being measured.
                std::thread::yield_now();
            }
        }
        while backend.inject(pkt.clone()).is_none() {
            std::thread::yield_now();
        }
        landed += 1;
    }
    landed
}

/// Runs `traffic` through a live engine over `backend` to end of
/// stream: build the engine, start `consumers`, start the clock and
/// [`inject`] on this thread, stop the backend, join the consumers,
/// shut the engine down and snapshot it.
///
/// # Panics
///
/// If the snapshot breaks a conservation law
/// ([`EngineSnapshot::check_conservation`]); the message names the
/// law.
pub fn drive(
    backend: Arc<dyn LoopbackBackend>,
    cfg: WireCapConfig,
    consumers: Consumers,
    traffic: impl IntoIterator<Item = Packet>,
    pace_pps: u64,
) -> LiveRun {
    enum Running {
        Threads(Vec<std::thread::JoinHandle<u64>>),
        Pool(wirecap::ConsumerPool),
        Disk(DiskSink),
    }
    let queues = backend.queue_count();
    let engine = LiveWireCap::builder()
        .backend(backend.clone())
        .config(cfg)
        .groups(BuddyGroups::single(queues))
        .start();
    let running = match consumers {
        Consumers::PerQueue(make) => Running::Threads(
            (0..queues)
                .map(|q| {
                    let mut consumer = engine.consumer(q);
                    let mut handle = make(q);
                    std::thread::Builder::new()
                        .name(format!("live-consumer-{q}"))
                        .spawn(move || {
                            let mut delivered = 0u64;
                            while let Some(chunk) = consumer.next_chunk() {
                                handle(consumer.view(&chunk));
                                delivered += chunk.len() as u64;
                                consumer.recycle(chunk);
                            }
                            delivered
                        })
                        .expect("spawning a consumer thread")
                })
                .collect(),
        ),
        Consumers::Pool { workers, handler } => {
            let handler = handler(&engine);
            Running::Pool(engine.consumer_pool(&BuddyGroup::all(queues), workers, handler))
        }
        Consumers::Disk(cfg) => {
            Running::Disk(DiskSink::attach(&engine, &cfg).expect("creating the capture directory"))
        }
    };
    let start = Instant::now();
    let offered = inject(backend.as_ref(), traffic, pace_pps);
    backend.stop().expect("stopping the backend");
    let (delivered, workers, disk) = match running {
        Running::Threads(threads) => {
            let delivered = threads
                .into_iter()
                .map(|t| t.join().expect("consumer thread panicked"))
                .sum();
            (delivered, Vec::new(), None)
        }
        Running::Pool(pool) => {
            let reports = pool.join();
            (reports.iter().map(|r| r.packets).sum(), reports, None)
        }
        Running::Disk(sink) => {
            let report = sink.wait();
            (report.delivered_packets(), Vec::new(), Some(report))
        }
    };
    let elapsed_s = start.elapsed().as_secs_f64();
    let observer = engine.observer();
    engine.shutdown();
    let snapshot = observer.snapshot();
    if let Err(broken) = snapshot.check_conservation(offered) {
        panic!("{} run: {broken}", backend.name());
    }
    LiveRun {
        offered,
        delivered,
        elapsed_s,
        snapshot,
        spans: observer.spans(),
        workers,
        disk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netproto::{FlowKey, PacketBuilder};
    use nicsim::livenic::LiveNic;
    use std::net::Ipv4Addr;
    use wirecap::NicSimBackend;

    fn traffic(n: u64) -> impl Iterator<Item = Packet> {
        let mut b = PacketBuilder::new();
        let flow = FlowKey::udp(
            Ipv4Addr::new(10, 7, 7, 7),
            7_777,
            Ipv4Addr::new(131, 225, 2, 1),
            443,
        );
        (0..n).map(move |i| b.build_packet(i * 1_000, &flow, 128).unwrap())
    }

    #[test]
    fn paced_injection_holds_the_offered_rate() {
        // 500 kp/s for 25k packets ≈ 50 ms floor; saturating would
        // finish much faster. The ceiling is loose (scheduling), the
        // floor is the point.
        let mut cfg = WireCapConfig::basic(64, 64, 0);
        cfg.capture_timeout_ns = 2_000_000;
        let run = drive(
            NicSimBackend::new(LiveNic::new(1, 4096)),
            cfg,
            Consumers::per_queue(|_| |_| {}),
            traffic(25_000),
            500_000,
        );
        assert_eq!(run.offered, 25_000);
        assert_eq!(run.delivered, 25_000);
        assert!(
            run.elapsed_s >= 0.045,
            "paced run finished implausibly fast: {}s",
            run.elapsed_s
        );
    }
}
