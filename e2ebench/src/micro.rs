//! Single-thread microbenchmarks of each layer's public primitives, on
//! the real types, reported per packet or per chunk against batch size.

use crate::frames::{border_trace, fixed_size, Frames};
use crate::stats::median;
use crate::workloads::M;
use capdisk::{EpbTemplate, FileFormat, RotatingWriter, RotationPolicy};
use shmring::ShmRingNic;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use wirecap::config::CELL_BYTES;
use wirecap::steal::{steal_deque, Steal};
use wirecap::{BatchRing, CaptureBackend, ChunkArena, Claim, ClaimQueue, LiveChunk};

/// A stand-in with the size of the engine's chunk handle: the handoff
/// queues move `LiveChunk`s, which only the engine can create.
type Handle = [u64; std::mem::size_of::<LiveChunk>() / 8];

/// Descriptors of the microbenchmark ring.
const RING: usize = 4096;

/// Runs `block` (which returns the ns it timed and the operations it
/// timed) until `budget` has passed and at least five blocks ran, and
/// returns the median ns per operation over the blocks.
fn per_op(budget: Duration, mut block: impl FnMut() -> (u64, u64)) -> f64 {
    let t = Instant::now();
    let mut per = Vec::new();
    while per.len() < 5 || t.elapsed() < budget {
        let (ns, ops) = block();
        per.push(ns as f64 / ops.max(1) as f64);
    }
    median(&per)
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs every microbenchmark within about `budget` in total, writing
/// capture files under `scratch` (and deleting them).
pub fn run(seed: u64, budget: Duration, scratch: &Path) -> BTreeMap<&'static str, f64> {
    // Seventeen microbenchmarks share the budget.
    let each = budget / 17;
    let f64b = fixed_size(seed, RING, 64);
    let f1024 = fixed_size(seed ^ 1, RING, 1024);
    let fmix = border_trace(seed, RING, 1, 1.0);
    let mut out = BTreeMap::new();

    let nic = ShmRingNic::new(1, RING);
    let ring = nic.ring(0);
    let queue = nic.queue(0);
    let fill = |frames: &Frames| {
        for i in 0..RING {
            let ok = ring.produce(i as u64, frames.wire_len[i], frames.data(i));
            assert_eq!(ok, Ok(true), "microbenchmark ring refused a frame");
        }
    };
    let drain = |max: usize| {
        let mut acc = 0u8;
        loop {
            let n = queue
                .poll_batch(max, &mut |f| acc ^= f.data[0])
                .expect("shmring poll");
            if n == 0 {
                break;
            }
            queue.recycle(n).expect("shmring recycle");
        }
        black_box(acc);
    };
    out.insert(
        "shmring.produce_ns_per_pkt",
        per_op(each, || {
            let t = Instant::now();
            fill(&f64b);
            let ns = elapsed_ns(t);
            drain(RING);
            (ns, RING as u64)
        }),
    );
    for (key, b) in [
        ("shmring.poll_ns_per_pkt.b1", 1),
        ("shmring.poll_ns_per_pkt.b16", 16),
        ("shmring.poll_ns_per_pkt.b64", 64),
        ("shmring.poll_ns_per_pkt.b256", 256),
    ] {
        out.insert(
            key,
            per_op(each, || {
                fill(&f64b);
                let t = Instant::now();
                drain(b);
                (elapsed_ns(t), RING as u64)
            }),
        );
    }

    let (arena, mut slots) = ChunkArena::with_slots(64, M, CELL_BYTES);
    for (key, frames) in [
        ("arena.write_ns_per_pkt.f64", &f64b),
        ("arena.write_ns_per_pkt.fmix", &fmix),
        ("arena.write_ns_per_pkt.f1024", &f1024),
    ] {
        let mut next = 0usize;
        out.insert(
            key,
            per_op(each, || {
                let t = Instant::now();
                for slot in slots.iter_mut() {
                    for _ in 0..M {
                        let i = next % frames.len();
                        next += 1;
                        arena.write_packet(slot, i as u64, frames.wire_len[i], frames.data(i));
                    }
                }
                let ns = elapsed_ns(t);
                slots = slots
                    .drain(..)
                    .map(|s| arena.release(arena.seal(s)))
                    .collect();
                (ns, (slots.len() * M) as u64)
            }),
        );
    }
    out.insert(
        "arena.seal_release_ns_per_chunk",
        per_op(each, || {
            let n = slots.len() as u64;
            let t = Instant::now();
            slots = slots
                .drain(..)
                .map(|s| arena.release(arena.seal_at(black_box(s), n)))
                .collect();
            (elapsed_ns(t), n)
        }),
    );

    let rounds = 256usize;
    for (key, b) in [
        ("spsc.push_pop_ns_per_chunk.b1", 1usize),
        ("spsc.push_pop_ns_per_chunk.b16", 16),
        ("spsc.push_pop_ns_per_chunk.b64", 64),
    ] {
        let q: BatchRing<Handle> = BatchRing::with_capacity(256);
        let mut stage = Vec::with_capacity(b);
        let mut back = Vec::with_capacity(b);
        out.insert(
            key,
            per_op(each, || {
                let t = Instant::now();
                for r in 0..rounds {
                    stage.extend(
                        (0..b).map(|i| [(r + i) as u64; std::mem::size_of::<Handle>() / 8]),
                    );
                    q.push_batch(&mut stage);
                    q.pop_batch(&mut back, b);
                    black_box(&back);
                    back.clear();
                }
                (elapsed_ns(t), (rounds * b) as u64)
            }),
        );
    }
    let (mut owner, stealer) = steal_deque::<Handle>(512);
    out.insert(
        "steal.push_pop_ns_per_chunk",
        per_op(each, || {
            let t = Instant::now();
            for r in 0..rounds {
                owner
                    .push([r as u64; std::mem::size_of::<Handle>() / 8])
                    .expect("deque has room");
                black_box(owner.pop());
            }
            (elapsed_ns(t), rounds as u64)
        }),
    );
    out.insert(
        "steal.steal_ns",
        per_op(each, || {
            for r in 0..rounds {
                owner
                    .push([r as u64; std::mem::size_of::<Handle>() / 8])
                    .expect("deque has room");
            }
            let t = Instant::now();
            let mut got = 0u64;
            while got < rounds as u64 {
                match stealer.steal() {
                    Steal::Success(h) => {
                        black_box(h);
                        got += 1;
                    }
                    Steal::Retry => {}
                    Steal::Empty => break,
                }
            }
            (elapsed_ns(t), got)
        }),
    );
    let claims: ClaimQueue<Handle> = ClaimQueue::new(512, 1);
    out.insert(
        "claim.push_claim_ns_per_chunk",
        per_op(each, || {
            let t = Instant::now();
            for r in 0..rounds {
                assert!(claims
                    .push([r as u64; std::mem::size_of::<Handle>() / 8])
                    .is_ok());
                match claims.try_claim() {
                    Claim::Claimed(h) => {
                        black_box(h);
                    }
                    Claim::Contended | Claim::Empty => panic!("single-thread claim failed"),
                }
            }
            (elapsed_ns(t), rounds as u64)
        }),
    );

    let epb = EpbTemplate::new(65_535);
    let mut buf = Vec::with_capacity(RING * 1100);
    out.insert(
        "capdisk.encode_ns_per_pkt.f1024",
        per_op(each, || {
            buf.clear();
            let t = Instant::now();
            for i in 0..RING {
                epb.append(&mut buf, i as u64, f1024.wire_len[i], f1024.data(i));
            }
            black_box(&buf);
            (elapsed_ns(t), RING as u64)
        }),
    );
    // One commit is one writer batch: 8 chunks of M packets of 1 024 B.
    let dir = scratch.join(format!("micro-{}", std::process::id()));
    let mut writer = RotatingWriter::new(
        &dir,
        "commit",
        FileFormat::Pcapng,
        65_535,
        RotationPolicy {
            max_file_bytes: 8 << 20,
            max_file_duration: None,
        },
    )
    .expect("creating the microbenchmark capture directory");
    let mut batches = 0u32;
    let commit_ns = per_op(each, || {
        for i in 0..8 * M {
            writer.push_packet(i as u64, f1024.wire_len[i], f1024.data(i));
        }
        let t = Instant::now();
        writer
            .commit_batch()
            .expect("committing a microbenchmark batch");
        let ns = elapsed_ns(t);
        batches += 1;
        // Keep at most one file of batches on disk.
        if batches.is_multiple_of(16) {
            for f in writer.files().iter().rev().skip(1) {
                std::fs::remove_file(f).ok();
            }
        }
        (ns, 1)
    });
    writer.finish().ok();
    std::fs::remove_dir_all(&dir).ok();
    out.insert("capdisk.commit_us_per_batch", commit_ns / 1e3);
    out
}
