//! Hot-path instrumentation budgets, plus the engine-level pool,
//! dispatch, flow and tail-latency entries. Writes `BENCH_hotpath.json`
//! at the repository root.
//!
//! **The replica.** [`Replica::run`] is one single-threaded copy of the
//! live engine's per-queue data path: capture polls the NIC in batches
//! of up to 256 packets, writes each frame into a
//! [`wirecap::arena::ChunkArena`] cell (the DMA model of §3.1), seals
//! full chunks and publishes the poll batch's chunks with one flush into
//! a [`wirecap::ClaimQueue`]; the consumer claims up to 64 chunks per
//! refill, reads borrowed `ChunkView` slices and releases each slot to
//! the freelist. That mirrors `capture_thread`/`stage`/`flush` and
//! `LiveConsumer::refill` in `wirecap::live`, on the engine's own
//! arena and handoff types. The loop is compiled once per stage set
//! (bare, +telemetry, +latency stamps, +spans, +pcapng encode), so
//! each variant carries none of the other stages' branches, and
//! [`PAIRS`] prices each stage against the set it rides on. The
//! engine-level entries (`consumer_pool`, `single_hot_queue`,
//! `backend_dispatch`, `flow_tracking`, `latency_slo`) time real code.
//!
//! **Why a replica remains.** The gated deltas are a few percent. On
//! the real `LiveWireCap` over `shmring` (1 queue, 128 B frames, closed
//! loop, consumer on the producing thread) the thread handoff's noise
//! swamps them: span sampling on vs off at M = 64 read a per-pair IQR
//! of about ±10–20%, which a 3% gate would straddle. The engine also
//! has no switch for latency metering. The replica stays the gates'
//! instrument until a quieter estimator exists; the end-to-end
//! benchmark of the real engine lives in `e2ebench/`.
//!
//! Run with `cargo bench -p bench --bench hotpath` (set
//! `CRITERION_QUICK=1` for a short CI run).

use apps::multi_pkt_handler::record_chunk_flows;
use bench::latency;
use bench::scaling;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use netproto::{FlowKey, Packet, PacketBuilder};
use nicsim::livenic::LiveNic;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;
use telemetry::{clock, kind, EventTracer, QueueCounters, SpanRecord, SpanRing, SpanStamps};
use wirecap::arena::{ChunkArena, FreeSlot, SealedSlot};
use wirecap::{
    BackendQueue, CaptureBackend, Claim, ClaimQueue, LoopbackBackend, NicSimBackend, NicSimQueue,
    RxFrame,
};

/// Chunks per pool (the paper's R).
const R: usize = 64;
/// Payload bytes per packet.
const FRAME: usize = 128;
/// Packets per NIC poll batch: the capture thread's `NIC_POP_BATCH`.
const NIC_POP_BATCH: usize = 256;
/// Chunks claimed per consumer refill: `LiveConsumer`'s `REFILL_BATCH`.
const REFILL_BATCH: usize = 64;
/// 1-in-N spans at the rate a production config would run.
const SPAN_SAMPLE_N: u64 = 64;

fn traffic(n: usize) -> Vec<Packet> {
    let mut b = PacketBuilder::new();
    (0..n)
        .map(|i| {
            let flow = FlowKey::udp(
                Ipv4Addr::new(131, 225, 2, (i % 200) as u8 + 1),
                (9_000 + i % 2_000) as u16,
                Ipv4Addr::new(10, 0, 0, 1),
                443,
            );
            b.build_packet(i as u64, &flow, FRAME).unwrap()
        })
        .collect()
}

/// Stage flags of a [`Replica::run`] variant.
///
/// * `TELEMETRY`: the engine's counter writes (relaxed adds batched per
///   poll batch and per drain), the chunk-fill and batch-size
///   histograms, and a disabled event tracer (one relaxed load per
///   sealed chunk, the price of having tracing available).
/// * `STAMPS`: one clock read per poll batch stamps every chunk sealed
///   in it (`seal_at`), one lazy read per drain stamps delivery, and
///   the latency intervals are recorded run-collapsed through
///   `telemetry::RunRecorder`, as `LiveConsumer::refill` records them.
/// * `SPANS`: every [`SPAN_SAMPLE_N`]-th sealed chunk carries
///   [`SpanStamps`]; its delivery completes a [`SpanRecord`], records
///   the five stage histograms and pushes onto a [`SpanRing`].
/// * `DISK`: the capdisk writer's encode: every delivered packet is
///   serialized through an `EpbTemplate` into a cursor-addressed batch
///   buffer, with one simulated commit per refill (a byte-counter add
///   standing in for the `write_all`) and one packet-counter add per
///   drain. The real sink runs this on its writer thread.
const TELEMETRY: u8 = 1;
const STAMPS: u8 = 2;
const SPANS: u8 = 4;
const DISK: u8 = 8;

/// One compiled stage set of the replica.
#[derive(Clone, Copy)]
struct Variant {
    /// Criterion entry name.
    name: &'static str,
    /// `BENCH_hotpath.json` key of the variant's packet rate.
    pps_key: &'static str,
    run: fn(&Replica, &[Packet]) -> (u64, u64),
}

const BARE: Variant = Variant {
    name: "batched_arena",
    pps_key: "batched_pps",
    run: Replica::run::<0>,
};
const COUNTED: Variant = Variant {
    name: "batched_arena_telemetry",
    pps_key: "telemetry_pps",
    run: Replica::run::<TELEMETRY>,
};
const STAMPED: Variant = Variant {
    name: "latency_stamping",
    pps_key: "latency_stamping_pps",
    run: Replica::run::<{ TELEMETRY | STAMPS }>,
};
const SPANNED: Variant = Variant {
    name: "span_tracing",
    pps_key: "span_tracing_pps",
    run: Replica::run::<{ TELEMETRY | STAMPS | SPANS }>,
};
const ENCODED: Variant = Variant {
    name: "disk_writer_encode",
    pps_key: "disk_writer_pps",
    run: Replica::run::<{ TELEMETRY | STAMPS | DISK }>,
};

/// The priced stages: (baseline, instrumented, overhead key). Each
/// instrumented variant adds one stage to its baseline. `check.sh`
/// gates `latency_overhead` at ≤ 5% at every M,
/// `span_tracing_overhead` at ≤ 3% at the largest M, and
/// `disk_writer_overhead` at ≤ 30% at m = 1 and ≤ 50% at the largest M
/// (the large-M encode streams every payload byte while the baseline
/// never reads one; EXPERIMENTS.md, known deviations).
/// `telemetry_overhead` is recorded, not gated.
const PAIRS: [(Variant, Variant, &str); 4] = [
    (BARE, COUNTED, "telemetry_overhead"),
    (COUNTED, STAMPED, "latency_overhead"),
    (STAMPED, SPANNED, "span_tracing_overhead"),
    (STAMPED, ENCODED, "disk_writer_overhead"),
];

/// The replica's fixtures, reused across rounds as the engine reuses
/// its pool.
struct Replica {
    arena: Arc<ChunkArena>,
    claims: ClaimQueue<SealedSlot>,
    tel: QueueCounters,
    tracer: EventTracer,
    spans: SpanRing,
    epb: capdisk::EpbTemplate,
    scratch: RefCell<Scratch>,
}

/// Buffers one run borrows, emptied again by its end.
struct Scratch {
    free: Vec<FreeSlot>,
    /// Chunks sealed in the current poll batch, published by `flush`.
    staged: Vec<SealedSlot>,
    /// Chunks claimed by the current refill.
    inbox: Vec<SealedSlot>,
    /// Sampled chunks in flight, keyed by seal sequence. The claim
    /// queue is FIFO and has one consumer here, so matching is
    /// front-of-queue.
    pending: VecDeque<(u64, SpanStamps)>,
    /// pcapng batch buffer, reset at each commit.
    enc: Vec<u8>,
}

/// Per-run progress counters.
#[derive(Default)]
struct Progress {
    /// Packets and bytes delivered.
    packets: u64,
    bytes: u64,
    /// Chunks sealed and delivered: the sequence numbers spans match on.
    sealed: u64,
    delivered: u64,
}

impl Replica {
    fn new(m: usize) -> Self {
        let (arena, free) = ChunkArena::with_slots(R, m, FRAME);
        Replica {
            arena,
            claims: ClaimQueue::new(R, 1),
            tel: QueueCounters::new(),
            tracer: EventTracer::new(1024),
            spans: SpanRing::with_capacity(1024),
            epb: capdisk::EpbTemplate::new(65_535),
            scratch: RefCell::new(Scratch {
                free,
                staged: Vec::with_capacity(R),
                inbox: Vec::with_capacity(REFILL_BATCH),
                pending: VecDeque::new(),
                enc: vec![0u8; 64 << 10],
            }),
        }
    }

    /// Captures and delivers `pkts` with the stages in `S`. Returns
    /// (packets, bytes) delivered.
    fn run<const S: u8>(&self, pkts: &[Packet]) -> (u64, u64) {
        let s = &mut *self.scratch.borrow_mut();
        let m = self.arena.m();
        let mut p = Progress::default();
        let mut current: Option<FreeSlot> = None;
        let mut rest = pkts;
        while !rest.is_empty() {
            if current.is_none() && s.free.is_empty() {
                self.drain::<S>(s, &mut p);
            }
            // Backpressure as in `capture_thread`: never poll more
            // packets than the chunks on hand can absorb.
            let room = current.as_ref().map_or(0, |c| m - c.filled()) + s.free.len() * m;
            let (batch, tail) = rest.split_at(rest.len().min(NIC_POP_BATCH).min(room));
            rest = tail;
            let now_ns = if S & STAMPS != 0 { clock::mono_ns() } else { 0 };
            for pkt in batch {
                let slot =
                    current.get_or_insert_with(|| s.free.pop().expect("room counts free slots"));
                if !self
                    .arena
                    .write_packet(slot, pkt.ts_ns, pkt.wire_len, &pkt.data)
                {
                    unreachable!("sealed before full");
                }
                if slot.filled() == m {
                    let full = current.take().expect("slot just filled");
                    self.stage::<S>(s, &mut p, full, now_ns);
                }
            }
            if S & TELEMETRY != 0 {
                self.tel.cap.captured_packets.add_local(batch.len() as u64);
            }
            self.flush::<S>(s);
        }
        // The trailing partial chunk goes through the same handoff, as
        // the engine's timeout and close paths send it.
        if let Some(last) = current.take() {
            if S & TELEMETRY != 0 {
                self.tel.cap.partial_chunks.inc_local();
            }
            let now_ns = if S & STAMPS != 0 { clock::mono_ns() } else { 0 };
            self.stage::<S>(s, &mut p, last, now_ns);
            self.flush::<S>(s);
        }
        self.drain::<S>(s, &mut p);
        (p.packets, p.bytes)
    }

    /// Seals a chunk and stages it for the poll batch's flush.
    fn stage<const S: u8>(&self, s: &mut Scratch, p: &mut Progress, slot: FreeSlot, now_ns: u64) {
        if S & TELEMETRY != 0 {
            let fill = slot.filled() as u64;
            self.tel.cap.sealed_chunks.inc_local();
            self.tel.cap.chunk_fill.record(fill);
            if self.tracer.is_enabled() {
                self.tracer.record(0, 0, kind::CAPTURE, 0, 0, fill);
            }
        }
        if S & SPANS != 0 {
            if p.sealed.is_multiple_of(SPAN_SAMPLE_N) {
                let stamps = SpanStamps {
                    sealed_ns: now_ns,
                    published_ns: now_ns,
                    ..Default::default()
                };
                s.pending.push_back((p.sealed, stamps));
            }
            p.sealed += 1;
        }
        s.staged.push(if S & STAMPS != 0 {
            self.arena.seal_at(slot, now_ns)
        } else {
            self.arena.seal(slot)
        });
    }

    /// Publishes the staged chunks: one flush per poll batch.
    fn flush<const S: u8>(&self, s: &mut Scratch) {
        if s.staged.is_empty() {
            return;
        }
        if S & TELEMETRY != 0 {
            self.tel.cap.batch_size.record(s.staged.len() as u64);
        }
        for seal in s.staged.drain(..) {
            if self.claims.push(seal).is_err() {
                unreachable!("the claim queue holds all R chunks");
            }
        }
    }

    /// The consumer: refills of up to [`REFILL_BATCH`] claims until the
    /// claim queue is empty, every chunk read and released.
    fn drain<const S: u8>(&self, s: &mut Scratch, p: &mut Progress) {
        let app = &self.tel.app;
        let mut packets = 0u64;
        let mut chunks = 0u64;
        // One lazy delivery stamp per drain, shared by every chunk.
        let mut delivered_ns = 0u64;
        let mut lat = telemetry::RunRecorder::new(&app.latency_ns);
        loop {
            while s.inbox.len() < REFILL_BATCH {
                match self.claims.try_claim() {
                    Claim::Claimed(seal) => s.inbox.push(seal),
                    Claim::Contended => std::hint::spin_loop(),
                    Claim::Empty => break,
                }
            }
            if s.inbox.is_empty() {
                break;
            }
            if S & STAMPS != 0 && delivered_ns == 0 {
                delivered_ns = clock::mono_ns();
            }
            let mut cursor = 0usize;
            for seal in s.inbox.drain(..) {
                for pkt in self.arena.view(&seal).iter() {
                    packets += 1;
                    p.bytes += pkt.data.len() as u64;
                    if S & DISK != 0 {
                        let len = self.epb.encoded_len(pkt.data.len());
                        if cursor + len > s.enc.len() {
                            s.enc.resize((s.enc.len() * 2).max(cursor + len), 0);
                        }
                        self.epb.encode_into(
                            &mut s.enc[cursor..cursor + len],
                            pkt.ts_ns,
                            pkt.wire_len,
                            pkt.data,
                        );
                        cursor += len;
                    }
                }
                if S & STAMPS != 0 && seal.sealed_ns() > 0 {
                    lat.push(delivered_ns.saturating_sub(seal.sealed_ns()));
                }
                if S & SPANS != 0 {
                    if s.pending
                        .front()
                        .is_some_and(|(seq, _)| *seq == p.delivered)
                    {
                        let (seq, mut st) = s.pending.pop_front().expect("front checked");
                        // Per-queue consumer convention: acquisition
                        // and delivery collapse onto the refill stamp.
                        st.acquire_started_ns = delivered_ns;
                        st.acquired_ns = delivered_ns;
                        st.deliver_start_ns = delivered_ns;
                        st.deliver_end_ns = delivered_ns;
                        let m = self.arena.m() as u32;
                        let rec =
                            SpanRecord::from_stamps(0, seq, m, None, false, &st, delivered_ns);
                        app.stage_backend_ns.record(rec.stage_backend_ns);
                        app.stage_queue_wait_ns.record(rec.stage_queue_wait_ns);
                        app.stage_claim_ns.record(rec.stage_claim_ns);
                        app.stage_reorder_ns.record(rec.stage_reorder_ns);
                        app.stage_deliver_ns.record(rec.stage_deliver_ns);
                        self.spans.push(rec);
                    }
                    p.delivered += 1;
                }
                chunks += 1;
                s.free.push(self.arena.release(seal));
            }
            if S & DISK != 0 {
                self.tel.disk.disk_written_bytes.add(cursor as u64);
                black_box(&s.enc[..cursor]);
            }
        }
        lat.finish();
        p.packets += packets;
        if S & TELEMETRY != 0 && chunks > 0 {
            app.delivered_packets.add(packets);
            app.recycled_chunks.add(chunks);
            if S & DISK != 0 {
                self.tel.disk.disk_written_packets.add(packets);
            }
        }
    }
}
/// Packets moved per NIC hop in the dispatch benchmark — the engine's
/// `NIC_POP_BATCH`, so the vtable cost is amortized exactly as the
/// capture thread amortizes it.
const DISPATCH_BATCH: usize = 256;

/// Static-dispatch half of the `backend_dispatch` pair: refill one NIC
/// queue, drain it through the monomorphized
/// [`NicSimQueue::poll_batch_mono`] (the shape the capture loop had
/// before the `CaptureBackend` trait), landing every frame in an arena
/// cell. Returns (packets, bytes) consumed.
fn dispatch_mono(
    pkts: &[Packet],
    backend: &NicSimBackend,
    queue: &NicSimQueue,
    arena: &ChunkArena,
    free: &mut Vec<FreeSlot>,
) -> (u64, u64) {
    let mut consumed = 0u64;
    let mut bytes = 0u64;
    let mut current = free.pop().expect("R slots free at start");
    for batch in pkts.chunks(DISPATCH_BATCH) {
        let landed = backend.inject_batch(batch);
        debug_assert_eq!(landed as usize, batch.len());
        let polled = queue.poll_batch_mono(batch.len(), |frame: RxFrame<'_>| {
            if !arena.write_packet(&mut current, frame.ts_ns, frame.wire_len, frame.data) {
                unreachable!("sealed before full");
            }
            consumed += 1;
            bytes += frame.data.len() as u64;
            if current.filled() == arena.m() {
                let next = free.pop().expect("released slots refill the freelist");
                let full = std::mem::replace(&mut current, next);
                free.push(arena.release(arena.seal(full)));
            }
        });
        debug_assert_eq!(polled, batch.len());
    }
    if current.filled() > 0 {
        free.push(arena.release(arena.seal(current)));
    } else {
        free.push(current);
    }
    (consumed, bytes)
}

/// Dynamic-dispatch half: byte-identical sink work, but the queue is
/// held as `Arc<dyn BackendQueue>` exactly as `capture_thread` holds it
/// — one virtual `poll_batch` (with a `&mut dyn FnMut` sink) and one
/// virtual `recycle` per batch. Measured against [`dispatch_mono`];
/// `scripts/check.sh` gates `backend_dispatch_overhead` at ≤ 2%.
fn dispatch_dyn(
    pkts: &[Packet],
    backend: &NicSimBackend,
    queue: &Arc<dyn BackendQueue>,
    arena: &ChunkArena,
    free: &mut Vec<FreeSlot>,
) -> (u64, u64) {
    let mut consumed = 0u64;
    let mut bytes = 0u64;
    let mut current = free.pop().expect("R slots free at start");
    for batch in pkts.chunks(DISPATCH_BATCH) {
        let landed = backend.inject_batch(batch);
        debug_assert_eq!(landed as usize, batch.len());
        let polled = queue
            .poll_batch(batch.len(), &mut |frame: RxFrame<'_>| {
                if !arena.write_packet(&mut current, frame.ts_ns, frame.wire_len, frame.data) {
                    unreachable!("sealed before full");
                }
                consumed += 1;
                bytes += frame.data.len() as u64;
                if current.filled() == arena.m() {
                    let next = free.pop().expect("released slots refill the freelist");
                    let full = std::mem::replace(&mut current, next);
                    free.push(arena.release(arena.seal(full)));
                }
            })
            .expect("nicsim poll is infallible");
        debug_assert_eq!(polled, batch.len());
        queue.recycle(polled).expect("nicsim recycle is infallible");
    }
    if current.filled() > 0 {
        free.push(arena.release(arena.seal(current)));
    } else {
        free.push(current);
    }
    (consumed, bytes)
}

/// Flow-universe size for the flow-tracking entry: one million
/// concurrent flows, the scale the `flowstat` table is sized for.
const FLOW_FLOWS: usize = 1 << 20;
/// Heavy hitters carrying most of the traffic (a border-link mix:
/// a few elephant flows over a long mouse tail).
const FLOW_ELEPHANTS: usize = 16;
/// Packets per simulated chunk in the flow-tracking comparison.
const FLOW_CHUNK: usize = 64;
/// Filter repetitions in the baseline consumer the flow stage rides
/// beside. The paper's application workloads apply the BPF filter `x`
/// times per packet, with `x = 300` for the "heavy processing load"
/// runs (Figs. 9-10); `x = 10` is a deliberately *light* consumer — an
/// order of magnitude below the paper's heavy setting — so the ≤ 10%
/// overhead gate holds even when the application does little work, not
/// just when its own cost dwarfs the flow stage.
const FLOW_FILTER_X: u32 = 10;

/// Deterministic 5-tuple for flow id `i` (unique for i < 2^24).
fn flow_id_key(i: usize) -> FlowKey {
    FlowKey::udp(
        Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
        9_000 + (i % 40_000) as u16,
        Ipv4Addr::new(131, 225, 2, 1),
        443,
    )
}

/// Border-trace-shaped bench traffic: ~75% of packets from
/// [`FLOW_ELEPHANTS`] elephant flows, the rest spread uniformly over
/// the full [`FLOW_FLOWS`] universe.
fn flow_traffic(n: usize) -> Vec<Packet> {
    let mut rng = sim::Pcg32::seeded(0x5eed_f10f);
    let mut b = PacketBuilder::new();
    (0..n)
        .map(|i| {
            let id = if rng.chance(0.75) {
                // Elephants sit at distinct ids spread across the table.
                (rng.gen_range_u32(FLOW_ELEPHANTS as u32) as usize) * 65_537
            } else {
                rng.gen_range_u32(FLOW_FLOWS as u32) as usize
            };
            b.build_packet(i as u64, &flow_id_key(id), FRAME).unwrap()
        })
        .collect()
}

/// Baseline consumer work for the flow-tracking comparison: the
/// per-packet BPF filter pass of `pkt_handler` (applied
/// [`FLOW_FILTER_X`] times, see that constant for the rationale),
/// chunk at a time — exactly the handler work the flow sink rides
/// beside in `run_pooled_flows`.
fn filter_only_path(pkts: &[Packet], handler: &mut apps::PktHandler) -> (u64, u64) {
    let mut consumed = 0u64;
    let mut bytes = 0u64;
    for chunk in pkts.chunks(FLOW_CHUNK) {
        for p in chunk {
            black_box(handler.handle_bytes(&p.data));
            consumed += 1;
            bytes += p.data.len() as u64;
        }
    }
    (consumed, bytes)
}

/// The same filter pass plus the pooled flow stage's per-chunk flush,
/// [`apps::multi_pkt_handler::record_chunk_flows`]: two-pass batched
/// `record_frames` into a pre-warmed million-entry table, top-K offers,
/// and the multi-writer counter adds into the home queue's flow shard,
/// then the occupancy gauge publish. Measured against
/// [`filter_only_path`]; `scripts/check.sh` gates
/// `flow_tracking_overhead` at ≤ 10%.
fn flow_tracking_path(
    pkts: &[Packet],
    handler: &mut apps::PktHandler,
    sink: &mut flowstat::FlowSink,
    tel: &QueueCounters,
) -> (u64, u64) {
    let mut consumed = 0u64;
    let mut bytes = 0u64;
    for chunk in pkts.chunks(FLOW_CHUNK) {
        for p in chunk {
            black_box(handler.handle_bytes(&p.data));
            consumed += 1;
            bytes += p.data.len() as u64;
        }
        let flow = &tel.flow.0;
        let deltas = record_chunk_flows(sink, chunk.iter().map(|p| &p.data[..]), flow);
        flow.flow_table_occupancy.set(deltas.occupancy);
    }
    (consumed, bytes)
}

/// Within-round execution order for [`measure_pair`].
#[derive(Clone, Copy, PartialEq)]
enum PairOrder {
    /// Alternate a-then-b / b-then-a per round. The right choice for
    /// *stateless* pairs (both closures touch the same working set the
    /// same way each round): order bias cancels in the median.
    Alternating,
    /// Run a-then-b every round. The right choice when one side owns
    /// large persistent state (the flow pair's pre-warmed 32 MiB
    /// table): alternation would make each round's cache predecessor
    /// heterogeneous — half the instrumented rounds following
    /// themselves, half following the baseline — and the median would
    /// straddle two populations instead of measuring one. A fixed
    /// order gives every round the same predecessor.
    Fixed,
}

/// [`measure_pair`]'s estimate of b's slowdown relative to a.
struct PairEstimate {
    /// Median-round packets/s of a.
    pps_a: f64,
    /// Median-round packets/s of b.
    pps_b: f64,
    /// `1 - median(time_a / time_b)` over the blocks, clamped at zero:
    /// the value the gates read (a delta below the noise floor can land
    /// a hair negative, which would only confuse the thresholds).
    overhead: f64,
    /// The same, signed, so the JSON shows a delta lost in the noise
    /// rather than a true zero.
    overhead_raw: f64,
    /// First and third quartiles of the per-block overheads (signed).
    overhead_iqr: [f64; 2],
}

/// Times two closures with interleaved rounds (a, b, a, b, …) so clock
/// drift and thermal effects hit both equally, and estimates b's
/// slowdown relative to a.
///
/// The estimate is the *median of per-block time ratios*: a and b of
/// the same block run back-to-back under (nearly) the same load, so
/// sustained slowdowns cancel in the ratio and the median discards the
/// blocks where a spike hit only one side. With
/// [`PairOrder::Alternating`] the within-round order also alternates
/// and each block spans an a-then-b and a b-then-a round, so the order
/// bias (the second side inherits the first's warmed caches and the
/// tail of its interference, which on a single-core host can exceed
/// the delta under measurement) cancels within every sample. The
/// interquartile range of the same block ratios is the estimate's
/// spread.
fn measure_pair(
    mut a: impl FnMut() -> (u64, u64),
    mut b: impl FnMut() -> (u64, u64),
    n_packets: usize,
    rounds: usize,
    order: PairOrder,
) -> PairEstimate {
    black_box(a());
    black_box(b());
    let timed = |f: &mut dyn FnMut() -> (u64, u64)| {
        let start = Instant::now();
        let (consumed, bytes) = black_box(f());
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(consumed as usize, n_packets);
        assert_eq!(bytes as usize, n_packets * FRAME);
        elapsed
    };
    let mut times = Vec::with_capacity(rounds);
    for round in 0..rounds {
        if order == PairOrder::Fixed || round % 2 == 0 {
            let ta = timed(&mut a);
            times.push((ta, timed(&mut b)));
        } else {
            let tb = timed(&mut b);
            times.push((timed(&mut a), tb));
        }
    }
    let mut ratios: Vec<f64> = match order {
        PairOrder::Alternating => times
            .chunks_exact(2)
            .map(|blk| (blk[0].0 + blk[1].0) / (blk[0].1 + blk[1].1))
            .collect(),
        PairOrder::Fixed => times.iter().map(|(ta, tb)| ta / tb).collect(),
    };
    let sort = |v: &mut Vec<f64>| v.sort_by(|x, y| x.partial_cmp(y).expect("finite round times"));
    sort(&mut ratios);
    let n = ratios.len();
    let raw = 1.0 - ratios[n / 2];
    let (mut ta, mut tb): (Vec<f64>, Vec<f64>) = times.into_iter().unzip();
    sort(&mut ta);
    sort(&mut tb);
    PairEstimate {
        pps_a: n_packets as f64 / ta[ta.len() / 2],
        pps_b: n_packets as f64 / tb[tb.len() / 2],
        overhead: raw.max(0.0),
        overhead_raw: raw,
        // Overhead falls as the ratio rises: the ratio's third quartile
        // is the overhead's first.
        overhead_iqr: [1.0 - ratios[3 * n / 4], 1.0 - ratios[n / 4]],
    }
}

fn quick() -> bool {
    std::env::var_os("CRITERION_QUICK").is_some() || std::env::args().any(|a| a == "--quick")
}

fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

fn bench_hotpath(c: &mut Criterion) {
    let ms = [1usize, 4, 16, 64];
    let n_packets = if quick() { 16 * 1024 } else { 64 * 1024 };
    // The overhead comparisons resolve small deltas, so their
    // median-of-ratios needs many rounds even in quick mode; each round
    // is sub-millisecond, so this stays cheap.
    let pair_rounds = 121;
    let pkts = traffic(n_packets);

    let mut results = Vec::new();
    for &m in &ms {
        let replica = Replica::new(m);
        let mut entry = vec![("m".to_string(), serde::Value::U64(m as u64))];
        for (base, inst, key) in PAIRS {
            let est = measure_pair(
                || (base.run)(&replica, &pkts),
                || (inst.run)(&replica, &pkts),
                n_packets,
                pair_rounds,
                PairOrder::Alternating,
            );
            eprintln!(
                "hotpath M={m:>2}: {} {:.0} p/s, {} {:.0} p/s, {key} {} (IQR {} .. {})",
                base.name,
                est.pps_a,
                inst.name,
                est.pps_b,
                pct(est.overhead),
                pct(est.overhead_iqr[0]),
                pct(est.overhead_iqr[1]),
            );
            if !entry.iter().any(|(k, _)| k == base.pps_key) {
                entry.push((base.pps_key.into(), serde::Value::F64(est.pps_a)));
            }
            entry.push((inst.pps_key.into(), serde::Value::F64(est.pps_b)));
            entry.push((key.into(), serde::Value::F64(est.overhead)));
            entry.push((format!("{key}_raw"), serde::Value::F64(est.overhead_raw)));
            entry.push((
                format!("{key}_iqr"),
                serde::Value::Arr(est.overhead_iqr.map(serde::Value::F64).to_vec()),
            ));
        }
        results.push(serde::Value::Obj(entry));

        // Criterion display entries, one per variant in the table.
        let mut g = c.benchmark_group(format!("hotpath_m{m}"));
        g.throughput(Throughput::Elements(n_packets as u64));
        let mut benched: Vec<&str> = Vec::new();
        for v in PAIRS.iter().flat_map(|(base, inst, _)| [base, inst]) {
            if !benched.contains(&v.name) {
                benched.push(v.name);
                g.bench_function(v.name, |b| b.iter(|| (v.run)(&replica, &pkts)));
            }
        }
        g.finish();
    }

    // Consumer-pool scaling entry (DESIGN.md §4.11): aggregate
    // delivered pps of a pooled worker set over skewed traffic with a
    // blocking per-chunk I/O stage, against the one-consumer-per-queue
    // baseline at the same queue count. `scripts/check.sh` gates
    // `pool_speedup` at ≥ 1.5×.
    let (pool_queues, pool_workers) = (4usize, 4usize);
    let pool_packets: u64 = if quick() { 60_000 } else { 200_000 };
    eprintln!(
        "hotpath consumer_pool: {pool_queues} queues, {pool_workers} workers, \
         {pool_packets} packets per mode"
    );
    let base = scaling::baseline_point(pool_queues, pool_packets);
    let pooled = scaling::pooled_point(pool_queues, pool_workers, pool_packets, false);
    let consumer_pool = ConsumerPoolEntry {
        queues: pool_queues,
        workers: pool_workers,
        packets: pool_packets,
        single_pps: base.pps,
        pooled_pps: pooled.pps,
        pool_speedup: pooled.pps / base.pps,
        stolen_chunks: pooled.stolen_chunks,
    };
    eprintln!(
        "hotpath consumer_pool: single {:.0} p/s, pooled {:.0} p/s, speedup {:.2}x \
         ({} chunks claimed off-shard)",
        consumer_pool.single_pps,
        consumer_pool.pooled_pps,
        consumer_pool.pool_speedup,
        consumer_pool.stolen_chunks
    );

    // Backend-dispatch entry (DESIGN.md §4.13): the price of holding
    // the NIC behind `Arc<dyn BackendQueue>` on the capture hot path —
    // virtual poll + recycle per 256-packet batch against the
    // monomorphized pre-trait loop, identical arena-write sink work.
    // `scripts/check.sh` gates `backend_dispatch_overhead` at ≤ 2%.
    let dispatch_m = 16usize;
    let nic = LiveNic::new(1, DISPATCH_BATCH * 4);
    let backend = NicSimBackend::new(Arc::clone(&nic));
    let mono_q = backend.mono_queue(0);
    let dyn_q: Arc<dyn BackendQueue> = backend.queue(0);
    let (dispatch_arena, dispatch_free) = ChunkArena::with_slots(R, dispatch_m, FRAME);
    let dispatch = {
        let free_cell = RefCell::new(dispatch_free);
        measure_pair(
            || {
                dispatch_mono(
                    &pkts,
                    &backend,
                    &mono_q,
                    &dispatch_arena,
                    &mut free_cell.borrow_mut(),
                )
            },
            || {
                dispatch_dyn(
                    &pkts,
                    &backend,
                    &dyn_q,
                    &dispatch_arena,
                    &mut free_cell.borrow_mut(),
                )
            },
            n_packets,
            pair_rounds,
            PairOrder::Alternating,
        )
    };
    let backend_dispatch = BackendDispatchEntry {
        m: dispatch_m,
        batch: DISPATCH_BATCH,
        mono_pps: dispatch.pps_a,
        dyn_pps: dispatch.pps_b,
        backend_dispatch_overhead: dispatch.overhead,
        backend_dispatch_overhead_raw: dispatch.overhead_raw,
        backend_dispatch_overhead_iqr: dispatch.overhead_iqr,
    };
    eprintln!(
        "hotpath backend_dispatch: mono {:.0} p/s, dyn {:.0} p/s, overhead {} (IQR {} .. {})",
        dispatch.pps_a,
        dispatch.pps_b,
        pct(dispatch.overhead),
        pct(dispatch.overhead_iqr[0]),
        pct(dispatch.overhead_iqr[1]),
    );

    // Single-hot-queue entry (DESIGN.md §4.11): all load on one queue,
    // pool workers claiming from the same claim queue and overlapping
    // the blocking per-chunk stage. The gate compares worker counts
    // against each other: `scripts/check.sh` gates `hotq_speedup` at
    // ≥ 1.5×.
    let hotq_workers = 4usize;
    let hotq_packets: u64 = if quick() { 40_000 } else { 150_000 };
    eprintln!("hotpath single_hot_queue: 1 queue, 1 vs {hotq_workers} workers, {hotq_packets} packets per mode");
    let hotq_one = scaling::pooled_point(1, 1, hotq_packets, false);
    let hotq_many = scaling::pooled_point(1, hotq_workers, hotq_packets, false);
    let single_hot_queue = SingleHotQueueEntry {
        workers: hotq_workers,
        packets: hotq_packets,
        one_worker_pps: hotq_one.pps,
        many_worker_pps: hotq_many.pps,
        hotq_speedup: hotq_many.pps / hotq_one.pps,
        claim_contention: hotq_many.claim_contention,
    };
    eprintln!(
        "hotpath single_hot_queue: 1w {:.0} p/s, {}w {:.0} p/s, speedup {:.2}x \
         ({} claim races lost)",
        single_hot_queue.one_worker_pps,
        single_hot_queue.workers,
        single_hot_queue.many_worker_pps,
        single_hot_queue.hotq_speedup,
        single_hot_queue.claim_contention
    );

    // Latency-SLO entry (DESIGN.md §4.16): capture-to-delivery tail
    // latency of a small and a large pool, saturating load, one worker
    // with a blocking per-chunk stage — the headline `fig_latency`
    // pair. The sealed backlog runs up to R chunks deep (bufferbloat in
    // chunk units), so the small pool must not show the worse tail.
    // `scripts/check.sh` gates small-pool p99.9 <= large-pool p99.9;
    // `small_pool_bound_ns` (R x M / pps) is reported, not gated.
    let (slo_small_r, slo_large_r) = (31usize, 256usize);
    let slo_packets: u64 = if quick() { 100_000 } else { 300_000 };
    eprintln!(
        "hotpath latency_slo: R={slo_small_r} vs R={slo_large_r}, saturating load, \
         {slo_packets} packets per pool"
    );
    let slo_large = latency::latency_point(slo_large_r, 0, slo_packets);
    let slo_small = latency::latency_point(slo_small_r, 0, slo_packets);
    let latency_slo = LatencySloEntry {
        small_pool_chunks: slo_small_r,
        large_pool_chunks: slo_large_r,
        packets: slo_packets,
        large_pool_p50_ns: slo_large.p50_ns,
        large_pool_p99_ns: slo_large.p99_ns,
        large_pool_p999_ns: slo_large.p999_ns,
        small_pool_p50_ns: slo_small.p50_ns,
        small_pool_p99_ns: slo_small.p99_ns,
        small_pool_p999_ns: slo_small.p999_ns,
        small_pool_bound_ns: slo_small
            .backlog_bound_ns
            .expect("saturated point has a bound"),
        tail_reduction: slo_large.p999_ns as f64 / slo_small.p999_ns.max(1) as f64,
        slo_ok: slo_small.p999_ns <= slo_large.p999_ns,
    };
    eprintln!(
        "hotpath latency_slo: R={slo_large_r} p99.9 {}us, R={slo_small_r} p99.9 {}us \
         (bound {}us, {:.1}x)",
        latency_slo.large_pool_p999_ns / 1_000,
        latency_slo.small_pool_p999_ns / 1_000,
        latency_slo.small_pool_bound_ns / 1_000,
        latency_slo.tail_reduction,
    );

    // Flow-tracking entry (DESIGN.md §4.15): the price of the per-chunk
    // flow-analytics stage — batched two-pass ingest into a pre-warmed
    // million-entry set-associative table plus top-K offers and the
    // telemetry delta flush — on top of the BPF-filtering consumer it
    // rides beside in `run_pooled_flows`. `scripts/check.sh` gates
    // `flow_tracking_overhead` at ≤ 10%.
    let flow_pkts = flow_traffic(n_packets);
    let flow_cfg = flowstat::FlowSinkConfig {
        table_capacity: FLOW_FLOWS,
        topk_capacity: 1024,
    };
    let mut flow_sink = flowstat::FlowSink::new(flow_cfg);
    // Pre-warm to steady state: the full million-flow universe is
    // resident before measurement, so every recorded packet pays the
    // realistic cost (a large-table lookup, possibly an eviction), not
    // the cold-start cost of an empty table.
    for i in 0..FLOW_FLOWS {
        flow_sink.record(
            flowstat::PackedFlowKey::from_flow(&flow_id_key(i)),
            FRAME as u64,
        );
    }
    let flow_tel = QueueCounters::new();
    eprintln!(
        "hotpath flow_tracking: {FLOW_FLOWS} flows, {FLOW_ELEPHANTS} elephants, \
         chunk {FLOW_CHUNK}, {n_packets} packets per mode"
    );
    let flow = {
        let mut handler_a = apps::PktHandler::paper(FLOW_FILTER_X);
        let mut handler_b = apps::PktHandler::paper(FLOW_FILTER_X);
        let sink_cell = RefCell::new(flow_sink);
        measure_pair(
            || filter_only_path(&flow_pkts, &mut handler_a),
            || {
                flow_tracking_path(
                    &flow_pkts,
                    &mut handler_b,
                    &mut sink_cell.borrow_mut(),
                    &flow_tel,
                )
            },
            n_packets,
            pair_rounds,
            PairOrder::Fixed,
        )
    };
    let flow_snap = flow_tel.snapshot(0);
    let flow_tracking = FlowTrackingEntry {
        flows: FLOW_FLOWS,
        table_capacity: FLOW_FLOWS,
        elephants: FLOW_ELEPHANTS,
        chunk: FLOW_CHUNK,
        filter_x: FLOW_FILTER_X,
        packets: n_packets,
        filter_pps: flow.pps_a,
        flow_pps: flow.pps_b,
        flow_tracking_overhead: flow.overhead,
        flow_tracking_overhead_raw: flow.overhead_raw,
        flow_tracking_overhead_iqr: flow.overhead_iqr,
        live_flows: flow_snap.flow_table_occupancy,
        evicted_flows: flow_snap.flow_evicted_flows,
    };
    eprintln!(
        "hotpath flow_tracking: filter {:.0} p/s, +flows {:.0} p/s, overhead {} \
         (IQR {} .. {}; {} live flows, {} evicted)",
        flow.pps_a,
        flow.pps_b,
        pct(flow.overhead),
        pct(flow.overhead_iqr[0]),
        pct(flow.overhead_iqr[1]),
        flow_tracking.live_flows,
        flow_tracking.evicted_flows
    );

    let doc = Doc {
        benchmark: "hot-path instrumentation replica over the claim-queue handoff".into(),
        frame_bytes: FRAME,
        pool_chunks: R,
        packets_per_round: n_packets,
        rounds: pair_rounds,
        results,
        consumer_pool,
        single_hot_queue,
        backend_dispatch,
        flow_tracking,
        latency_slo,
    };
    // Cargo runs benches from the package root, `crates/bench`. Resolving
    // against the working directory at run time, not the compile-time
    // manifest path, keeps a copied tree that reuses a built target
    // directory from writing into the tree it was built from.
    let path = std::env::current_dir()
        .expect("reading the working directory")
        .join("../../BENCH_hotpath.json");
    let body = serde_json::to_string_pretty(&doc).expect("serializing results");
    std::fs::write(&path, body + "\n").expect("writing BENCH_hotpath.json");
    eprintln!("wrote {}", path.display());
}

/// Multi-core delivery scaling: pooled claim workers (with adaptive
/// parking) vs one consumer per queue, identical skewed
/// traffic and per-chunk work. Gated at `pool_speedup >= 1.5` by
/// `scripts/check.sh`.
#[derive(serde::Serialize)]
struct ConsumerPoolEntry {
    queues: usize,
    workers: usize,
    packets: u64,
    single_pps: f64,
    pooled_pps: f64,
    pool_speedup: f64,
    stolen_chunks: u64,
}

/// Single-hot-queue scaling: pool workers claiming from one queue, N
/// workers vs 1. Gated at `hotq_speedup >= 1.5`
/// by `scripts/check.sh`.
#[derive(serde::Serialize)]
struct SingleHotQueueEntry {
    workers: usize,
    packets: u64,
    one_worker_pps: f64,
    many_worker_pps: f64,
    hotq_speedup: f64,
    claim_contention: u64,
}

/// Static vs dynamic backend dispatch on the capture hot path: the
/// monomorphized `NicSimQueue::poll_batch_mono` loop against the same
/// loop through `Arc<dyn BackendQueue>` (virtual poll + recycle per
/// batch). Gated at `backend_dispatch_overhead <= 0.02` by
/// `scripts/check.sh`.
#[derive(serde::Serialize)]
struct BackendDispatchEntry {
    m: usize,
    batch: usize,
    mono_pps: f64,
    dyn_pps: f64,
    backend_dispatch_overhead: f64,
    backend_dispatch_overhead_raw: f64,
    backend_dispatch_overhead_iqr: [f64; 2],
}

/// Online flow analytics on the delivery path: the BPF-filtering
/// consumer alone vs the same consumer plus the per-chunk `FlowSink`
/// stage over a pre-warmed million-entry table. Gated at
/// `flow_tracking_overhead <= 0.10` by `scripts/check.sh`.
#[derive(serde::Serialize)]
struct FlowTrackingEntry {
    flows: usize,
    table_capacity: usize,
    elephants: usize,
    chunk: usize,
    filter_x: u32,
    packets: usize,
    filter_pps: f64,
    flow_pps: f64,
    flow_tracking_overhead: f64,
    flow_tracking_overhead_raw: f64,
    flow_tracking_overhead_iqr: [f64; 2],
    live_flows: u64,
    evicted_flows: u64,
}

/// Capture-to-delivery tail latency SLO (DESIGN.md §4.16): a small and
/// a large pool under saturating load. Gated by `scripts/check.sh`:
/// small-pool p99.9 ≤ large-pool p99.9.
#[derive(serde::Serialize)]
struct LatencySloEntry {
    small_pool_chunks: usize,
    large_pool_chunks: usize,
    packets: u64,
    large_pool_p50_ns: u64,
    large_pool_p99_ns: u64,
    large_pool_p999_ns: u64,
    small_pool_p50_ns: u64,
    small_pool_p99_ns: u64,
    small_pool_p999_ns: u64,
    small_pool_bound_ns: u64,
    tail_reduction: f64,
    slo_ok: bool,
}

#[derive(serde::Serialize)]
struct Doc {
    benchmark: String,
    frame_bytes: usize,
    pool_chunks: usize,
    packets_per_round: usize,
    rounds: usize,
    /// Per-M replica rates and overheads, keyed from [`PAIRS`].
    results: Vec<serde::Value>,
    consumer_pool: ConsumerPoolEntry,
    single_hot_queue: SingleHotQueueEntry,
    backend_dispatch: BackendDispatchEntry,
    flow_tracking: FlowTrackingEntry,
    latency_slo: LatencySloEntry,
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
