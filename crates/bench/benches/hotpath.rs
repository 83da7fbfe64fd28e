//! Old-vs-new hot path: chunk-at-a-time owned packets against the
//! batched, allocation-free arena pipeline.
//!
//! The seed live engine moved every packet through a per-packet
//! `ArrayQueue` hop, cloned it into a freshly allocated `Vec<Packet>`
//! per chunk, and handed each chunk to the consumer with one CAS on a
//! shared `ArrayQueue`. The rebuilt engine writes payloads into a
//! fixed-cell [`wirecap::arena::ChunkArena`] (the DMA model of §3.1 —
//! the NIC lands frames directly in chunk cells), hands chunks to the
//! consumer over an SPSC [`wirecap::spsc::BatchRing`] up to
//! [`wirecap::spsc::MAX_BATCH`] at a time, and the consumer reads
//! borrowed slices through `ChunkView` before releasing the slot.
//!
//! Both pipelines are exercised single-threaded over identical traffic
//! at M ∈ {1, 4, 16, 64}, and the measured packet rates are written to
//! `BENCH_hotpath.json` at the repository root.
//!
//! Run with `cargo bench -p bench --bench hotpath` (set
//! `CRITERION_QUICK=1` for a short CI run).

use bench::latency;
use bench::scaling;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use crossbeam::queue::ArrayQueue;
use netproto::{FlowKey, Packet, PacketBuilder};
use nicsim::livenic::LiveNic;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;
use telemetry::{clock, kind, EventTracer, QueueCounters, SpanRecord, SpanRing, SpanStamps};
use wirecap::arena::{ChunkArena, FreeSlot};
use wirecap::spsc::{BatchRing, MAX_BATCH};
use wirecap::{BackendQueue, CaptureBackend, LoopbackBackend, NicSimBackend, NicSimQueue, RxFrame};

/// Chunks per pool in both pipelines (the paper's R).
const R: usize = 64;
/// Payload bytes per packet.
const FRAME: usize = 128;

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

/// The seed pipeline: per-packet queue hop, owned per-chunk `Vec`s,
/// chunk-at-a-time consumer handoff. Returns (packets, bytes) consumed.
fn seed_path(
    pkts: &[Packet],
    m: usize,
    nic: &ArrayQueue<Packet>,
    chunks: &ArrayQueue<Vec<Packet>>,
) -> (u64, u64) {
    let mut consumed = 0u64;
    let mut bytes = 0u64;
    let mut current: Vec<Packet> = Vec::with_capacity(m);
    let drain = |chunks: &ArrayQueue<Vec<Packet>>, consumed: &mut u64, bytes: &mut u64| {
        while let Some(chunk) = chunks.pop() {
            for p in &chunk {
                *consumed += 1;
                *bytes += p.data.len() as u64;
            }
            // The chunk's Vec (and its packet clones) die here — the
            // per-chunk allocation the seed engine paid.
            drop(chunk);
        }
    };
    for pkt in pkts {
        // NIC hop: one push + one pop + one clone per packet.
        nic.push(pkt.clone())
            .expect("nic ring drained every packet");
        let pkt = nic.pop().expect("just pushed");
        current.push(pkt);
        if current.len() == m {
            let full = std::mem::replace(&mut current, Vec::with_capacity(m));
            if chunks.push(full).is_err() {
                unreachable!("consumer keeps up in-line");
            }
            drain(chunks, &mut consumed, &mut bytes);
        }
    }
    for p in &current {
        consumed += 1;
        bytes += p.data.len() as u64;
    }
    current.clear();
    drain(chunks, &mut consumed, &mut bytes);
    (consumed, bytes)
}

/// The batched arena pipeline: payloads land in fixed cells, sealed
/// chunks move through an SPSC batch ring, the consumer reads borrowed
/// views and releases slots. Returns (packets, bytes) consumed.
fn batched_path(
    pkts: &[Packet],
    arena: &ChunkArena,
    free: &mut Vec<FreeSlot>,
    ring: &BatchRing<wirecap::arena::SealedSlot>,
) -> (u64, u64) {
    let mut consumed = 0u64;
    let mut bytes = 0u64;
    let mut staged = Vec::with_capacity(MAX_BATCH);
    let mut popped = Vec::with_capacity(MAX_BATCH);
    let drain = |free: &mut Vec<FreeSlot>,
                 popped: &mut Vec<wirecap::arena::SealedSlot>,
                 consumed: &mut u64,
                 bytes: &mut u64| {
        loop {
            popped.clear();
            if ring.pop_batch(popped, MAX_BATCH) == 0 {
                break;
            }
            for seal in popped.drain(..) {
                for p in arena.view(&seal).iter() {
                    *consumed += 1;
                    *bytes += p.data.len() as u64;
                }
                free.push(arena.release(seal));
            }
        }
    };
    let mut current = free.pop().expect("R slots free at start");
    for pkt in pkts {
        // DMA model: the frame lands directly in the chunk cell.
        if !arena.write_packet(&mut current, pkt.ts_ns, pkt.wire_len, &pkt.data) {
            unreachable!("sealed before full");
        }
        if current.filled() == arena.m() {
            staged.push(arena.seal(current));
            if staged.len() == MAX_BATCH {
                while !staged.is_empty() {
                    if ring.push_batch(&mut staged) == 0 {
                        drain(free, &mut popped, &mut consumed, &mut bytes);
                    }
                }
            }
            if free.is_empty() {
                drain(free, &mut popped, &mut consumed, &mut bytes);
            }
            current = free.pop().expect("drain refilled the freelist");
        }
    }
    // Trailing partial chunk: count in place and keep the slot free.
    let view_len = current.filled();
    if view_len > 0 {
        let seal = arena.seal(current);
        for p in arena.view(&seal).iter() {
            consumed += 1;
            bytes += p.data.len() as u64;
        }
        free.push(arena.release(seal));
    } else {
        free.push(current);
    }
    while !staged.is_empty() {
        if ring.push_batch(&mut staged) == 0 {
            drain(free, &mut popped, &mut consumed, &mut bytes);
        }
    }
    drain(free, &mut popped, &mut consumed, &mut bytes);
    (consumed, bytes)
}

/// The batched pipeline with the live engine's telemetry writes in the
/// loop: relaxed counter adds batched per chunk, the three histograms,
/// and a disabled event tracer (one relaxed load per chunk — the price
/// of having tracing available). Measured against [`batched_path`] to
/// prove the counters are free when no snapshot is taken: the
/// `telemetry_overhead` entry in `BENCH_hotpath.json`.
fn telemetry_path(
    pkts: &[Packet],
    arena: &ChunkArena,
    free: &mut Vec<FreeSlot>,
    ring: &BatchRing<wirecap::arena::SealedSlot>,
    tel: &QueueCounters,
    tracer: &EventTracer,
) -> (u64, u64) {
    let mut consumed = 0u64;
    let mut bytes = 0u64;
    let mut staged = Vec::with_capacity(MAX_BATCH);
    let mut popped = Vec::with_capacity(MAX_BATCH);
    // Consumer-side accounting is tallied locally and flushed once per
    // drain call, exactly as `LiveConsumer` flushes per inbox refill.
    let drain = |free: &mut Vec<FreeSlot>,
                 popped: &mut Vec<wirecap::arena::SealedSlot>,
                 consumed: &mut u64,
                 bytes: &mut u64| {
        let mut delivered = 0u64;
        let mut recycled = 0u64;
        loop {
            popped.clear();
            if ring.pop_batch(popped, MAX_BATCH) == 0 {
                break;
            }
            for seal in popped.drain(..) {
                for p in arena.view(&seal).iter() {
                    delivered += 1;
                    *bytes += p.data.len() as u64;
                }
                recycled += 1;
                free.push(arena.release(seal));
            }
        }
        *consumed += delivered;
        if recycled > 0 {
            tel.app.delivered_packets.add(delivered);
            tel.app.recycled_chunks.add(recycled);
        }
    };
    // Captured-packet adds are batched exactly as the live engine
    // batches them: one store per NIC pop batch, not one per packet —
    // the inner per-packet loop is byte-identical to `batched_path`.
    const NIC_POP_BATCH: usize = 256;
    let mut current = free.pop().expect("R slots free at start");
    for batch in pkts.chunks(NIC_POP_BATCH) {
        for pkt in batch {
            if !arena.write_packet(&mut current, pkt.ts_ns, pkt.wire_len, &pkt.data) {
                unreachable!("sealed before full");
            }
            if current.filled() == arena.m() {
                let fill = current.filled() as u64;
                tel.cap.sealed_chunks.inc_local();
                tel.cap.chunk_fill.record(fill);
                if tracer.is_enabled() {
                    tracer.record(0, 0, kind::CAPTURE, 0, 0, fill);
                }
                staged.push(arena.seal(current));
                if staged.len() == MAX_BATCH {
                    while !staged.is_empty() {
                        let pushed = ring.push_batch(&mut staged);
                        if pushed == 0 {
                            drain(free, &mut popped, &mut consumed, &mut bytes);
                        } else {
                            tel.cap.batch_size.record(pushed as u64);
                        }
                    }
                }
                if free.is_empty() {
                    drain(free, &mut popped, &mut consumed, &mut bytes);
                }
                current = free.pop().expect("drain refilled the freelist");
            }
        }
        tel.cap.captured_packets.add_local(batch.len() as u64);
    }
    let view_len = current.filled();
    if view_len > 0 {
        tel.cap.sealed_chunks.inc_local();
        tel.cap.partial_chunks.inc_local();
        tel.cap.chunk_fill.record(view_len as u64);
        let seal = arena.seal(current);
        let mut delivered = 0u64;
        for p in arena.view(&seal).iter() {
            delivered += 1;
            bytes += p.data.len() as u64;
        }
        consumed += delivered;
        tel.app.delivered_packets.add(delivered);
        tel.app.recycled_chunks.add(1);
        free.push(arena.release(seal));
    } else {
        free.push(current);
    }
    while !staged.is_empty() {
        let pushed = ring.push_batch(&mut staged);
        if pushed == 0 {
            drain(free, &mut popped, &mut consumed, &mut bytes);
        } else {
            tel.cap.batch_size.record(pushed as u64);
        }
    }
    drain(free, &mut popped, &mut consumed, &mut bytes);
    (consumed, bytes)
}

/// The telemetry pipeline plus the PR-3 latency instrumentation: one
/// monotonic-clock read per NIC poll batch stamping every chunk sealed
/// within it (`seal_at`, exactly as the capture thread amortizes its
/// stamp), one lazy clock read per consumer drain call (the delivery
/// stamp, shared by every chunk the drain recycles, as
/// `LiveConsumer::refill` stamps its inbox), and run-collapsed histogram recording — the
/// shared stamps make the intervals arrive in runs, so recording is a
/// compare per chunk plus one `record_repeat` flush per run
/// (`telemetry::RunRecorder`, the engine's refill recording exactly).
/// Measured against [`telemetry_path`] to bound what capture-to-
/// delivery latency metering costs on top of the counters: the
/// `latency_overhead` entry in `BENCH_hotpath.json`.
fn stamped_path(
    pkts: &[Packet],
    arena: &ChunkArena,
    free: &mut Vec<FreeSlot>,
    ring: &BatchRing<wirecap::arena::SealedSlot>,
    tel: &QueueCounters,
    tracer: &EventTracer,
) -> (u64, u64) {
    let mut consumed = 0u64;
    let mut bytes = 0u64;
    let mut staged = Vec::with_capacity(MAX_BATCH);
    let mut popped = Vec::with_capacity(MAX_BATCH);
    let drain = |free: &mut Vec<FreeSlot>,
                 popped: &mut Vec<wirecap::arena::SealedSlot>,
                 consumed: &mut u64,
                 bytes: &mut u64| {
        let mut delivered = 0u64;
        let mut recycled = 0u64;
        // Delivery stamp: one lazy clock read per drain call, shared
        // by every chunk it recycles — the engine's refill-batch
        // amortization (`LiveConsumer::refill` reads the clock once
        // per refill).
        let mut delivered_ns = 0u64;
        // Latency intervals arrive in runs (one delivery stamp per
        // drain, poll-batch-shared seal stamps): a compare per chunk,
        // one histogram flush per run — `LiveConsumer::refill`'s
        // recording, exactly.
        let mut lat = telemetry::RunRecorder::new(&tel.app.latency_ns);
        loop {
            popped.clear();
            if ring.pop_batch(popped, MAX_BATCH) == 0 {
                break;
            }
            if delivered_ns == 0 {
                delivered_ns = clock::mono_ns();
            }
            for seal in popped.drain(..) {
                for p in arena.view(&seal).iter() {
                    delivered += 1;
                    *bytes += p.data.len() as u64;
                }
                let sealed_ns = seal.sealed_ns();
                if sealed_ns > 0 {
                    lat.push(delivered_ns.saturating_sub(sealed_ns));
                }
                recycled += 1;
                free.push(arena.release(seal));
            }
        }
        lat.finish();
        *consumed += delivered;
        if recycled > 0 {
            tel.app.delivered_packets.add(delivered);
            tel.app.recycled_chunks.add(recycled);
        }
    };
    const NIC_POP_BATCH: usize = 256;
    let mut current = free.pop().expect("R slots free at start");
    for batch in pkts.chunks(NIC_POP_BATCH) {
        // Seal stamp: one clock read per poll batch, shared by every
        // chunk sealed in it.
        let now_ns = clock::mono_ns();
        for pkt in batch {
            if !arena.write_packet(&mut current, pkt.ts_ns, pkt.wire_len, &pkt.data) {
                unreachable!("sealed before full");
            }
            if current.filled() == arena.m() {
                let fill = current.filled() as u64;
                tel.cap.sealed_chunks.inc_local();
                tel.cap.chunk_fill.record(fill);
                if tracer.is_enabled() {
                    tracer.record(0, 0, kind::CAPTURE, 0, 0, fill);
                }
                staged.push(arena.seal_at(current, now_ns));
                if staged.len() == MAX_BATCH {
                    while !staged.is_empty() {
                        let pushed = ring.push_batch(&mut staged);
                        if pushed == 0 {
                            drain(free, &mut popped, &mut consumed, &mut bytes);
                        } else {
                            tel.cap.batch_size.record(pushed as u64);
                        }
                    }
                }
                if free.is_empty() {
                    drain(free, &mut popped, &mut consumed, &mut bytes);
                }
                current = free.pop().expect("drain refilled the freelist");
            }
        }
        tel.cap.captured_packets.add_local(batch.len() as u64);
    }
    let view_len = current.filled();
    if view_len > 0 {
        tel.cap.sealed_chunks.inc_local();
        tel.cap.partial_chunks.inc_local();
        tel.cap.chunk_fill.record(view_len as u64);
        let seal = arena.seal_at(current, clock::mono_ns());
        let mut delivered = 0u64;
        for p in arena.view(&seal).iter() {
            delivered += 1;
            bytes += p.data.len() as u64;
        }
        let sealed_ns = seal.sealed_ns();
        if sealed_ns > 0 {
            tel.app
                .latency_ns
                .record(clock::mono_ns().saturating_sub(sealed_ns));
        }
        consumed += delivered;
        tel.app.delivered_packets.add(delivered);
        tel.app.recycled_chunks.add(1);
        free.push(arena.release(seal));
    } else {
        free.push(current);
    }
    while !staged.is_empty() {
        let pushed = ring.push_batch(&mut staged);
        if pushed == 0 {
            drain(free, &mut popped, &mut consumed, &mut bytes);
        } else {
            tel.cap.batch_size.record(pushed as u64);
        }
    }
    drain(free, &mut popped, &mut consumed, &mut bytes);
    (consumed, bytes)
}

/// 1-in-N spans at the rate a production config would run.
const SPAN_SAMPLE_N: u64 = 64;

/// The stamped pipeline plus 1-in-[`SPAN_SAMPLE_N`] span tracing:
/// every N-th sealed chunk carries a [`SpanStamps`] through the
/// pipeline (seal + publish stamps shared with the batch clock read),
/// and its delivery completes a [`SpanRecord`] — per-stage computation,
/// five `Log2Histogram` records, and one mutex-guarded [`SpanRing`]
/// push. Measured against [`stamped_path`] to bound what enabling
/// `span_sample_n` costs on top of latency metering: the
/// `span_tracing` entry in `BENCH_hotpath.json`, gated at ≤ 3% by
/// `scripts/check.sh`.
fn spans_path(
    pkts: &[Packet],
    arena: &ChunkArena,
    free: &mut Vec<FreeSlot>,
    ring: &BatchRing<wirecap::arena::SealedSlot>,
    tel: &QueueCounters,
    tracer: &EventTracer,
    spans: &SpanRing,
) -> (u64, u64) {
    let mut consumed = 0u64;
    let mut bytes = 0u64;
    let mut staged = Vec::with_capacity(MAX_BATCH);
    let mut popped = Vec::with_capacity(MAX_BATCH);
    // Sampled chunks in flight, keyed by seal sequence. The SPSC ring
    // preserves order single-threaded, so matching is front-of-queue.
    let mut pending: VecDeque<(u64, SpanStamps)> = VecDeque::new();
    let mut seal_seq = 0u64;
    let mut deliver_seq = 0u64;
    let drain = |free: &mut Vec<FreeSlot>,
                 popped: &mut Vec<wirecap::arena::SealedSlot>,
                 consumed: &mut u64,
                 bytes: &mut u64,
                 pending: &mut VecDeque<(u64, SpanStamps)>,
                 deliver_seq: &mut u64| {
        let mut delivered = 0u64;
        let mut recycled = 0u64;
        // One lazy delivery stamp per drain call (see `stamped_path`);
        // span stamps reuse it, as `LiveConsumer::refill` reuses its
        // refill stamp.
        let mut delivered_ns = 0u64;
        // Latency intervals arrive in runs (one delivery stamp per
        // drain, poll-batch-shared seal stamps): a compare per chunk,
        // one histogram flush per run — `LiveConsumer::refill`'s
        // recording, exactly.
        let mut lat = telemetry::RunRecorder::new(&tel.app.latency_ns);
        loop {
            popped.clear();
            if ring.pop_batch(popped, MAX_BATCH) == 0 {
                break;
            }
            if delivered_ns == 0 {
                delivered_ns = clock::mono_ns();
            }
            for seal in popped.drain(..) {
                for p in arena.view(&seal).iter() {
                    delivered += 1;
                    *bytes += p.data.len() as u64;
                }
                let sealed_ns = seal.sealed_ns();
                if sealed_ns > 0 {
                    lat.push(delivered_ns.saturating_sub(sealed_ns));
                }
                if pending.front().is_some_and(|(s, _)| *s == *deliver_seq) {
                    let (s, mut st) = pending.pop_front().expect("front checked");
                    // Per-queue consumer convention: acquisition and
                    // delivery collapse onto the batch delivery stamp.
                    st.acquire_started_ns = delivered_ns;
                    st.acquired_ns = delivered_ns;
                    st.deliver_start_ns = delivered_ns;
                    st.deliver_end_ns = delivered_ns;
                    let rec = SpanRecord::from_stamps(
                        0,
                        s,
                        arena.m() as u32,
                        None,
                        false,
                        &st,
                        delivered_ns,
                    );
                    tel.app.stage_backend_ns.record(rec.stage_backend_ns);
                    tel.app.stage_queue_wait_ns.record(rec.stage_queue_wait_ns);
                    tel.app.stage_claim_ns.record(rec.stage_claim_ns);
                    tel.app.stage_reorder_ns.record(rec.stage_reorder_ns);
                    tel.app.stage_deliver_ns.record(rec.stage_deliver_ns);
                    spans.push(rec);
                }
                *deliver_seq += 1;
                recycled += 1;
                free.push(arena.release(seal));
            }
        }
        lat.finish();
        *consumed += delivered;
        if recycled > 0 {
            tel.app.delivered_packets.add(delivered);
            tel.app.recycled_chunks.add(recycled);
        }
    };
    const NIC_POP_BATCH: usize = 256;
    let mut current = free.pop().expect("R slots free at start");
    for batch in pkts.chunks(NIC_POP_BATCH) {
        let now_ns = clock::mono_ns();
        for pkt in batch {
            if !arena.write_packet(&mut current, pkt.ts_ns, pkt.wire_len, &pkt.data) {
                unreachable!("sealed before full");
            }
            if current.filled() == arena.m() {
                let fill = current.filled() as u64;
                tel.cap.sealed_chunks.inc_local();
                tel.cap.chunk_fill.record(fill);
                if tracer.is_enabled() {
                    tracer.record(0, 0, kind::CAPTURE, 0, 0, fill);
                }
                if seal_seq.is_multiple_of(SPAN_SAMPLE_N) {
                    pending.push_back((
                        seal_seq,
                        SpanStamps {
                            sealed_ns: now_ns,
                            published_ns: now_ns,
                            ..Default::default()
                        },
                    ));
                }
                seal_seq += 1;
                staged.push(arena.seal_at(current, now_ns));
                if staged.len() == MAX_BATCH {
                    while !staged.is_empty() {
                        let pushed = ring.push_batch(&mut staged);
                        if pushed == 0 {
                            drain(
                                free,
                                &mut popped,
                                &mut consumed,
                                &mut bytes,
                                &mut pending,
                                &mut deliver_seq,
                            );
                        } else {
                            tel.cap.batch_size.record(pushed as u64);
                        }
                    }
                }
                if free.is_empty() {
                    drain(
                        free,
                        &mut popped,
                        &mut consumed,
                        &mut bytes,
                        &mut pending,
                        &mut deliver_seq,
                    );
                }
                current = free.pop().expect("drain refilled the freelist");
            }
        }
        tel.cap.captured_packets.add_local(batch.len() as u64);
    }
    let view_len = current.filled();
    if view_len > 0 {
        tel.cap.sealed_chunks.inc_local();
        tel.cap.partial_chunks.inc_local();
        tel.cap.chunk_fill.record(view_len as u64);
        let seal = arena.seal_at(current, clock::mono_ns());
        let mut delivered = 0u64;
        for p in arena.view(&seal).iter() {
            delivered += 1;
            bytes += p.data.len() as u64;
        }
        let sealed_ns = seal.sealed_ns();
        if sealed_ns > 0 {
            tel.app
                .latency_ns
                .record(clock::mono_ns().saturating_sub(sealed_ns));
        }
        consumed += delivered;
        tel.app.delivered_packets.add(delivered);
        tel.app.recycled_chunks.add(1);
        free.push(arena.release(seal));
    } else {
        free.push(current);
    }
    while !staged.is_empty() {
        let pushed = ring.push_batch(&mut staged);
        if pushed == 0 {
            drain(
                free,
                &mut popped,
                &mut consumed,
                &mut bytes,
                &mut pending,
                &mut deliver_seq,
            );
        } else {
            tel.cap.batch_size.record(pushed as u64);
        }
    }
    drain(
        free,
        &mut popped,
        &mut consumed,
        &mut bytes,
        &mut pending,
        &mut deliver_seq,
    );
    (consumed, bytes)
}

/// The stamped pipeline plus the capture-to-disk writer's encode work:
/// every delivered packet is serialized as a pcapng Enhanced Packet
/// Block into a reused batch buffer, with one simulated commit (and one
/// batched disk-counter add) per pop batch — the `capdisk` writer
/// thread's `push_packet`/`commit_batch` split, minus the actual
/// `write(2)`, so the number isolates the CPU cost of the encode copy.
/// In the real sink this work runs on a dedicated writer thread, not
/// the capture thread; the `disk_writer` entry in `BENCH_hotpath.json`
/// bounds how much headroom that thread needs. The encode mirrors the
/// `RotatingWriter` discipline exactly: a per-writer `EpbTemplate`
/// encoding into cursor-addressed batch storage, so the measured cost
/// is header patching plus the unavoidable payload copy (check.sh
/// gates the overhead at 30% at m=1 and 50% at the largest m — see
/// EXPERIMENTS.md, known deviations, for why the large-m ratio is
/// memory-traffic-bound).
fn disk_writer_path(
    pkts: &[Packet],
    arena: &ChunkArena,
    free: &mut Vec<FreeSlot>,
    ring: &BatchRing<wirecap::arena::SealedSlot>,
    tel: &QueueCounters,
    tracer: &EventTracer,
    enc: &mut Vec<u8>,
) -> (u64, u64) {
    const SNAPLEN: u32 = 65_535;
    // One precomputed EPB header per writer, patched per packet — the
    // same template the real `RotatingWriter` holds.
    let tmpl = capdisk::EpbTemplate::new(SNAPLEN);
    let mut consumed = 0u64;
    let mut bytes = 0u64;
    let mut staged = Vec::with_capacity(MAX_BATCH);
    let mut popped = Vec::with_capacity(MAX_BATCH);
    let tmpl_ref = &tmpl;
    let drain = move |free: &mut Vec<FreeSlot>,
                      popped: &mut Vec<wirecap::arena::SealedSlot>,
                      enc: &mut Vec<u8>,
                      consumed: &mut u64,
                      bytes: &mut u64| {
        let mut delivered = 0u64;
        let mut recycled = 0u64;
        // One lazy delivery stamp per drain call (see `stamped_path`).
        let mut delivered_ns = 0u64;
        // Latency intervals arrive in runs (one delivery stamp per
        // drain, poll-batch-shared seal stamps): a compare per chunk,
        // one histogram flush per run — `LiveConsumer::refill`'s
        // recording, exactly.
        let mut lat = telemetry::RunRecorder::new(&tel.app.latency_ns);
        loop {
            popped.clear();
            if ring.pop_batch(popped, MAX_BATCH) == 0 {
                break;
            }
            if delivered_ns == 0 {
                delivered_ns = clock::mono_ns();
            }
            // Cursor into the batch buffer, reset at each commit —
            // the `RotatingWriter` encode discipline: pre-sized
            // zeroed storage, pure slice stores per packet.
            let mut cursor = 0usize;
            for seal in popped.drain(..) {
                for p in arena.view(&seal).iter() {
                    delivered += 1;
                    *bytes += p.data.len() as u64;
                    let len = tmpl_ref.encoded_len(p.data.len());
                    if cursor + len > enc.len() {
                        enc.resize((enc.len() * 2).max(cursor + len).max(1 << 16), 0);
                    }
                    tmpl_ref.encode_into(
                        &mut enc[cursor..cursor + len],
                        p.ts_ns,
                        p.wire_len,
                        p.data,
                    );
                    cursor += len;
                }
                let sealed_ns = seal.sealed_ns();
                if sealed_ns > 0 {
                    lat.push(delivered_ns.saturating_sub(sealed_ns));
                }
                recycled += 1;
                free.push(arena.release(seal));
            }
            // Simulated commit: one batched counter add per pop
            // batch, standing in for the single `write_all` the real
            // writer issues here.
            tel.disk.disk_written_bytes.add(cursor as u64);
            black_box(&enc[..cursor]);
        }
        lat.finish();
        *consumed += delivered;
        if recycled > 0 {
            tel.app.delivered_packets.add(delivered);
            tel.app.recycled_chunks.add(recycled);
            tel.disk.disk_written_packets.add(delivered);
        }
    };
    const NIC_POP_BATCH: usize = 256;
    let mut current = free.pop().expect("R slots free at start");
    for batch in pkts.chunks(NIC_POP_BATCH) {
        let now_ns = clock::mono_ns();
        for pkt in batch {
            if !arena.write_packet(&mut current, pkt.ts_ns, pkt.wire_len, &pkt.data) {
                unreachable!("sealed before full");
            }
            if current.filled() == arena.m() {
                let fill = current.filled() as u64;
                tel.cap.sealed_chunks.inc_local();
                tel.cap.chunk_fill.record(fill);
                if tracer.is_enabled() {
                    tracer.record(0, 0, kind::CAPTURE, 0, 0, fill);
                }
                staged.push(arena.seal_at(current, now_ns));
                if staged.len() == MAX_BATCH {
                    while !staged.is_empty() {
                        let pushed = ring.push_batch(&mut staged);
                        if pushed == 0 {
                            drain(free, &mut popped, enc, &mut consumed, &mut bytes);
                        } else {
                            tel.cap.batch_size.record(pushed as u64);
                        }
                    }
                }
                if free.is_empty() {
                    drain(free, &mut popped, enc, &mut consumed, &mut bytes);
                }
                current = free.pop().expect("drain refilled the freelist");
            }
        }
        tel.cap.captured_packets.add_local(batch.len() as u64);
    }
    let view_len = current.filled();
    if view_len > 0 {
        tel.cap.sealed_chunks.inc_local();
        tel.cap.partial_chunks.inc_local();
        tel.cap.chunk_fill.record(view_len as u64);
        let seal = arena.seal_at(current, clock::mono_ns());
        let mut delivered = 0u64;
        let mut cursor = 0usize;
        for p in arena.view(&seal).iter() {
            delivered += 1;
            bytes += p.data.len() as u64;
            let len = tmpl.encoded_len(p.data.len());
            if cursor + len > enc.len() {
                enc.resize((enc.len() * 2).max(cursor + len).max(1 << 16), 0);
            }
            tmpl.encode_into(&mut enc[cursor..cursor + len], p.ts_ns, p.wire_len, p.data);
            cursor += len;
        }
        let sealed_ns = seal.sealed_ns();
        if sealed_ns > 0 {
            tel.app
                .latency_ns
                .record(clock::mono_ns().saturating_sub(sealed_ns));
        }
        tel.disk.disk_written_bytes.add(cursor as u64);
        black_box(&enc[..cursor]);
        consumed += delivered;
        tel.app.delivered_packets.add(delivered);
        tel.app.recycled_chunks.add(1);
        tel.disk.disk_written_packets.add(delivered);
        free.push(arena.release(seal));
    } else {
        free.push(current);
    }
    while !staged.is_empty() {
        let pushed = ring.push_batch(&mut staged);
        if pushed == 0 {
            drain(free, &mut popped, enc, &mut consumed, &mut bytes);
        } else {
            tel.cap.batch_size.record(pushed as u64);
        }
    }
    drain(free, &mut popped, enc, &mut consumed, &mut bytes);
    (consumed, bytes)
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

/// The same filter pass plus the full per-chunk flow-analytics stage:
/// two-pass batched `record_frames` into a pre-warmed million-entry
/// table, top-K offers, and the per-chunk telemetry delta flush.
/// Measured against [`filter_only_path`]; `scripts/check.sh` gates
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
        sink.record_frames(chunk.iter().map(|p| &p.data[..]));
        let deltas = sink.drain_deltas();
        let flow = &tel.flow.0;
        flow.flow_tracked_packets.add_local(deltas.packets);
        flow.flow_evicted_flows.add_local(deltas.evicted_flows);
        flow.flow_evicted_packets.add_local(deltas.evicted_packets);
        flow.flow_hash_collisions.add_local(deltas.hash_collisions);
        flow.flow_table_occupancy.set(deltas.occupancy);
    }
    (consumed, bytes)
}

/// Times `f` over `rounds` passes of `n_packets` and returns the
/// median-round packets/s. The median (not the mean over the whole
/// wall-clock span) keeps one preempted round from dragging the
/// reported rate for the other `rounds - 1`.
fn measure(mut f: impl FnMut() -> (u64, u64), n_packets: usize, rounds: usize) -> f64 {
    // Warm-up pass.
    black_box(f());
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        let (consumed, bytes) = black_box(f());
        times.push(start.elapsed().as_secs_f64());
        assert_eq!(consumed as usize, n_packets);
        assert_eq!(bytes as usize, n_packets * FRAME);
    }
    times.sort_by(|x, y| x.partial_cmp(y).expect("finite round times"));
    n_packets as f64 / times[times.len() / 2]
}

/// Times two closures with interleaved rounds (a, b, a, b, …) so clock
/// drift and thermal effects hit both equally. Returns the best-round
/// packets/s for each plus a noise-robust estimate of b's slowdown
/// relative to a (`1 - speed_b/speed_a`).
///
/// The per-path minimum handles additive noise (preemption and
/// frequency dips only ever add time), but on a busy host the two
/// minima can land in different load regimes and skew the ratio by
/// more than the small delta under measurement. The overhead estimate
/// therefore comes from the *median of per-round time ratios*: a and b
/// of the same round run back-to-back under (nearly) the same load, so
/// sustained slowdowns cancel in the ratio and the median discards the
/// rounds where a spike hit only one side. With
/// [`PairOrder::Alternating`] the within-round execution order also
/// alternates (a-then-b, b-then-a, …): whichever side runs second
/// inherits the first side's warmed caches and any tail-end of its
/// interference, and on a single-core host that order bias alone can
/// exceed a small delta under measurement — alternating makes it
/// cancel in the median instead of stacking onto one side.
/// Returns `(pps_a, pps_b, overhead_clamped, overhead_raw)`: the raw
/// value keeps its sign so the JSON shows when a delta sits below the
/// noise floor (slightly negative) rather than silently reading as a
/// true zero; the clamped value is what the gates consume.
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

fn measure_pair(
    mut a: impl FnMut() -> (u64, u64),
    mut b: impl FnMut() -> (u64, u64),
    n_packets: usize,
    rounds: usize,
    order: PairOrder,
) -> (f64, f64, f64, f64) {
    black_box(a());
    black_box(b());
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    let mut ratios = Vec::with_capacity(rounds);
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
        let (time_a, time_b) = if order == PairOrder::Fixed || round % 2 == 0 {
            let ta = timed(&mut a);
            let tb = timed(&mut b);
            (ta, tb)
        } else {
            let tb = timed(&mut b);
            let ta = timed(&mut a);
            (ta, tb)
        };
        best_a = best_a.min(time_a);
        best_b = best_b.min(time_b);
        times.push((time_a, time_b));
    }
    match order {
        // Each ratio spans a two-round block — one a-then-b round plus
        // one b-then-a round — so order bias cancels *within every
        // sample*, rather than leaving the median to split two
        // oppositely-biased populations.
        PairOrder::Alternating => {
            for block in times.chunks_exact(2) {
                ratios.push((block[0].0 + block[1].0) / (block[0].1 + block[1].1));
            }
        }
        PairOrder::Fixed => {
            for (time_a, time_b) in times {
                ratios.push(time_a / time_b);
            }
        }
    }
    ratios.sort_by(|x, y| x.partial_cmp(y).expect("finite round times"));
    // Clamp at zero for the gates: when the delta under test is below
    // the noise floor the median ratio can land a hair past 1.0, and a
    // "negative overhead" would only confuse the gate thresholds. The
    // raw signed value rides along so the JSON distinguishes "truly
    // zero" from "lost in the noise".
    let raw = 1.0 - ratios[ratios.len() / 2];
    (
        n_packets as f64 / best_a,
        n_packets as f64 / best_b,
        raw.max(0.0),
        raw,
    )
}

fn quick() -> bool {
    std::env::var_os("CRITERION_QUICK").is_some() || std::env::args().any(|a| a == "--quick")
}

fn bench_hotpath(c: &mut Criterion) {
    let ms = [1usize, 4, 16, 64];
    let n_packets = if quick() { 16 * 1024 } else { 64 * 1024 };
    let rounds = if quick() { 3 } else { 10 };
    // The overhead comparisons resolve small deltas, so their
    // median-of-ratios needs more rounds than the headline numbers even
    // in quick mode; each round is sub-millisecond, so this stays cheap.
    let pair_rounds = 121;
    let pkts = traffic(n_packets);

    let mut results = Vec::new();
    for &m in &ms {
        // Seed fixtures (reused across rounds, like the seed engine).
        let nic: ArrayQueue<Packet> = ArrayQueue::new(R * m.max(2));
        let chunks: ArrayQueue<Vec<Packet>> = ArrayQueue::new(R);
        // Arena fixtures.
        let (arena, mut free) = ChunkArena::with_slots(R, m, FRAME);
        let ring: BatchRing<wirecap::arena::SealedSlot> = BatchRing::with_capacity(R);

        let tel = QueueCounters::new();
        let tracer = EventTracer::new(1024);

        let seed_pps = measure(|| seed_path(&pkts, m, &nic, &chunks), n_packets, rounds);
        let (batched_pps, telemetry_pps, telemetry_overhead, telemetry_overhead_raw) = {
            let free_cell = std::cell::RefCell::new(std::mem::take(&mut free));
            let r = measure_pair(
                || batched_path(&pkts, &arena, &mut free_cell.borrow_mut(), &ring),
                || {
                    telemetry_path(
                        &pkts,
                        &arena,
                        &mut free_cell.borrow_mut(),
                        &ring,
                        &tel,
                        &tracer,
                    )
                },
                n_packets,
                pair_rounds,
                PairOrder::Alternating,
            );
            free = free_cell.into_inner();
            r
        };
        // Latency stamping is measured against the telemetry baseline
        // (not the bare batched path): the 5% budget in check.sh bounds
        // what the *stamp itself* adds to an already-instrumented loop.
        let (_, latency_stamping_pps, latency_overhead, latency_overhead_raw) = {
            let free_cell = std::cell::RefCell::new(std::mem::take(&mut free));
            let r = measure_pair(
                || {
                    telemetry_path(
                        &pkts,
                        &arena,
                        &mut free_cell.borrow_mut(),
                        &ring,
                        &tel,
                        &tracer,
                    )
                },
                || {
                    stamped_path(
                        &pkts,
                        &arena,
                        &mut free_cell.borrow_mut(),
                        &ring,
                        &tel,
                        &tracer,
                    )
                },
                n_packets,
                pair_rounds,
                PairOrder::Alternating,
            );
            free = free_cell.into_inner();
            r
        };
        // Span tracing is measured against the stamped baseline: the
        // 3% budget in check.sh bounds what 1-in-N lifecycle spans add
        // to an already latency-metered loop.
        let spans_ring = SpanRing::with_capacity(1024);
        let (_, span_tracing_pps, span_tracing_overhead, span_tracing_overhead_raw) = {
            let free_cell = std::cell::RefCell::new(std::mem::take(&mut free));
            let r = measure_pair(
                || {
                    stamped_path(
                        &pkts,
                        &arena,
                        &mut free_cell.borrow_mut(),
                        &ring,
                        &tel,
                        &tracer,
                    )
                },
                || {
                    spans_path(
                        &pkts,
                        &arena,
                        &mut free_cell.borrow_mut(),
                        &ring,
                        &tel,
                        &tracer,
                        &spans_ring,
                    )
                },
                n_packets,
                pair_rounds,
                PairOrder::Alternating,
            );
            free = free_cell.into_inner();
            r
        };
        // The disk-writer encode is measured against the stamped
        // baseline: the extra cost is exactly what the capdisk writer
        // thread adds (pcapng encode + batched commit bookkeeping).
        let mut enc: Vec<u8> = vec![0u8; 64 << 10];
        let (_, disk_writer_pps, disk_writer_overhead, disk_writer_overhead_raw) = {
            let free_cell = std::cell::RefCell::new(std::mem::take(&mut free));
            let r = measure_pair(
                || {
                    stamped_path(
                        &pkts,
                        &arena,
                        &mut free_cell.borrow_mut(),
                        &ring,
                        &tel,
                        &tracer,
                    )
                },
                || {
                    disk_writer_path(
                        &pkts,
                        &arena,
                        &mut free_cell.borrow_mut(),
                        &ring,
                        &tel,
                        &tracer,
                        &mut enc,
                    )
                },
                n_packets,
                pair_rounds,
                PairOrder::Alternating,
            );
            free = free_cell.into_inner();
            r
        };
        let speedup = batched_pps / seed_pps;
        eprintln!(
            "hotpath M={m:>2}: seed {seed_pps:>12.0} p/s, batched {batched_pps:>12.0} p/s, \
             speedup {speedup:.2}x, telemetry {telemetry_pps:>12.0} p/s \
             (overhead {:.2}%), stamped {latency_stamping_pps:>12.0} p/s \
             (latency overhead {:.2}%), spans {span_tracing_pps:>12.0} p/s \
             (span overhead {:.2}%), disk writer {disk_writer_pps:>12.0} p/s \
             (encode overhead {:.2}%)",
            telemetry_overhead * 100.0,
            latency_overhead * 100.0,
            span_tracing_overhead * 100.0,
            disk_writer_overhead * 100.0
        );
        results.push(HotpathResult {
            m,
            seed_pps,
            batched_pps,
            speedup,
            telemetry_pps,
            telemetry_overhead,
            telemetry_overhead_raw,
            latency_stamping_pps,
            latency_overhead,
            latency_overhead_raw,
            span_tracing_pps,
            span_tracing_overhead,
            span_tracing_overhead_raw,
            disk_writer_pps,
            disk_writer_overhead,
            disk_writer_overhead_raw,
        });

        // Criterion display entries over the same closures.
        let mut g = c.benchmark_group(format!("hotpath_m{m}"));
        g.throughput(Throughput::Elements(n_packets as u64));
        g.bench_function("seed_chunk_at_a_time", |b| {
            b.iter(|| seed_path(&pkts, m, &nic, &chunks))
        });
        g.bench_function("batched_arena", |b| {
            b.iter(|| batched_path(&pkts, &arena, &mut free, &ring))
        });
        g.bench_function("batched_arena_telemetry", |b| {
            b.iter(|| telemetry_path(&pkts, &arena, &mut free, &ring, &tel, &tracer))
        });
        g.bench_function("latency_stamping", |b| {
            b.iter(|| stamped_path(&pkts, &arena, &mut free, &ring, &tel, &tracer))
        });
        g.bench_function("span_tracing", |b| {
            b.iter(|| spans_path(&pkts, &arena, &mut free, &ring, &tel, &tracer, &spans_ring))
        });
        g.bench_function("disk_writer_encode", |b| {
            b.iter(|| disk_writer_path(&pkts, &arena, &mut free, &ring, &tel, &tracer, &mut enc))
        });
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
    let (mono_pps, dyn_pps, dispatch_overhead, dispatch_overhead_raw) = {
        let free_cell = std::cell::RefCell::new(dispatch_free);
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
        mono_pps,
        dyn_pps,
        backend_dispatch_overhead: dispatch_overhead,
        backend_dispatch_overhead_raw: dispatch_overhead_raw,
    };
    eprintln!(
        "hotpath backend_dispatch: mono {mono_pps:.0} p/s, dyn {dyn_pps:.0} p/s, \
         overhead {:.2}%",
        dispatch_overhead * 100.0
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
    let (filter_pps, flow_pps, flow_overhead, flow_overhead_raw) = {
        let mut handler_a = apps::PktHandler::paper(FLOW_FILTER_X);
        let mut handler_b = apps::PktHandler::paper(FLOW_FILTER_X);
        let sink_cell = std::cell::RefCell::new(flow_sink);
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
        filter_pps,
        flow_pps,
        flow_tracking_overhead: flow_overhead,
        flow_tracking_overhead_raw: flow_overhead_raw,
        live_flows: flow_snap.flow_table_occupancy,
        evicted_flows: flow_snap.flow_evicted_flows,
    };
    eprintln!(
        "hotpath flow_tracking: filter {filter_pps:.0} p/s, +flows {flow_pps:.0} p/s, \
         overhead {:.2}% ({} live flows, {} evicted)",
        flow_overhead * 100.0,
        flow_tracking.live_flows,
        flow_tracking.evicted_flows
    );

    write_json(
        &results,
        consumer_pool,
        single_hot_queue,
        backend_dispatch,
        flow_tracking,
        latency_slo,
        n_packets,
        rounds,
    );
}

struct HotpathResult {
    m: usize,
    seed_pps: f64,
    batched_pps: f64,
    speedup: f64,
    telemetry_pps: f64,
    telemetry_overhead: f64,
    telemetry_overhead_raw: f64,
    latency_stamping_pps: f64,
    latency_overhead: f64,
    latency_overhead_raw: f64,
    span_tracing_pps: f64,
    span_tracing_overhead: f64,
    span_tracing_overhead_raw: f64,
    disk_writer_pps: f64,
    disk_writer_overhead: f64,
    disk_writer_overhead_raw: f64,
}

#[derive(serde::Serialize)]
struct Entry {
    m: usize,
    seed_pps: f64,
    batched_pps: f64,
    speedup: f64,
    telemetry_pps: f64,
    telemetry_overhead: f64,
    telemetry_overhead_raw: f64,
    latency_stamping_pps: f64,
    latency_overhead: f64,
    latency_overhead_raw: f64,
    span_tracing_pps: f64,
    span_tracing_overhead: f64,
    span_tracing_overhead_raw: f64,
    disk_writer_pps: f64,
    disk_writer_overhead: f64,
    disk_writer_overhead_raw: f64,
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
    results: Vec<Entry>,
    consumer_pool: ConsumerPoolEntry,
    single_hot_queue: SingleHotQueueEntry,
    backend_dispatch: BackendDispatchEntry,
    flow_tracking: FlowTrackingEntry,
    latency_slo: LatencySloEntry,
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    results: &[HotpathResult],
    consumer_pool: ConsumerPoolEntry,
    single_hot_queue: SingleHotQueueEntry,
    backend_dispatch: BackendDispatchEntry,
    flow_tracking: FlowTrackingEntry,
    latency_slo: LatencySloEntry,
    n_packets: usize,
    rounds: usize,
) {
    let doc = Doc {
        benchmark: "live hot path, chunk-at-a-time vs batched arena".into(),
        frame_bytes: FRAME,
        pool_chunks: R,
        packets_per_round: n_packets,
        rounds,
        results: results
            .iter()
            .map(|r| Entry {
                m: r.m,
                seed_pps: r.seed_pps,
                batched_pps: r.batched_pps,
                speedup: r.speedup,
                telemetry_pps: r.telemetry_pps,
                telemetry_overhead: r.telemetry_overhead,
                telemetry_overhead_raw: r.telemetry_overhead_raw,
                latency_stamping_pps: r.latency_stamping_pps,
                latency_overhead: r.latency_overhead,
                latency_overhead_raw: r.latency_overhead_raw,
                span_tracing_pps: r.span_tracing_pps,
                span_tracing_overhead: r.span_tracing_overhead,
                span_tracing_overhead_raw: r.span_tracing_overhead_raw,
                disk_writer_pps: r.disk_writer_pps,
                disk_writer_overhead: r.disk_writer_overhead,
                disk_writer_overhead_raw: r.disk_writer_overhead_raw,
            })
            .collect(),
        consumer_pool,
        single_hot_queue,
        backend_dispatch,
        flow_tracking,
        latency_slo,
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_hotpath.json");
    let body = serde_json::to_string_pretty(&doc).expect("serializing results");
    std::fs::write(&path, body + "\n").expect("writing BENCH_hotpath.json");
    eprintln!("wrote {}", path.display());
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
