//! Exhaustive interleaving check for the `shmring` descriptor-ring
//! protocol (`shmring::ShmQueue`, DESIGN.md §4.13).
//!
//! Loom is not available in this tree, so this is a hand-rolled model
//! checker in the style of `tests/claim_interleavings.rs`. Both sides
//! of the protocol are restated as explicit step machines, one step
//! per shared-memory access, mirroring `crates/shmring/src/lib.rs`:
//!
//! - **Producer**, per offered frame: load the cached tail, load
//!   `head`, and if the cached room ran out, reload `tail` (refusing
//!   the frame if the ring is really full) and store it back to the
//!   cache; CAS `head` forward (a failure retries from the winner's
//!   head); write the slot; store the lap tag (the Release publish).
//! - **Consumer**: load the status of the descriptor under its cursor
//!   and compare it with the cursor's lap tag; read the slot and lend
//!   it; or, at any moment it holds lent frames, recycle one with a
//!   `tail` store. Recycling one frame per step covers every uneven
//!   partial-recycle pattern, including tail values a batched store
//!   never shows.
//!
//! A DFS enumerates every interleaving of two producers and one
//! consumer over a 2-descriptor ring. Identical states reached by
//! different schedules are explored once: every assertion depends only
//! on the state (which carries the lend log), so this prunes nothing a
//! schedule could reveal. The checks:
//!
//! - a producer writes a slot only after the consumer recycled the
//!   slot's previous lap, and never while a lent frame still sits in it;
//! - the consumer reads a slot only once its current lap is published,
//!   never a stale lap;
//! - at the end, every accepted frame was lent exactly once, in
//!   reservation order, and `received + dropped = offered`.
//!
//! The model checks the protocol's logic under sequential consistency;
//! the Acquire/Release pairing of the real implementation is argued in
//! `shmring`'s comments. A final smoke test drives the real `ShmQueue`
//! through the contended shapes the model covers.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use shmring::ShmRingNic;
use wirecap::backend::{BackendQueue, CaptureBackend, RxFrame};

const N: u64 = 2;

fn lap_tag(pos: u64) -> u32 {
    (pos / N) as u32 + 1
}

/// Program counter of one modeled producer, one variant per pending
/// shared-memory access.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Prod {
    /// About to load the cached tail for the next offered frame.
    LoadCache,
    /// About to load `head`.
    LoadHead { tail: u64 },
    /// Cached room ran out: about to reload the consumer's `tail`.
    ReloadTail { head: u64 },
    /// About to store a freshly loaded tail into the cache.
    StoreCache { head: u64, tail: u64 },
    /// Room checked: about to CAS `head` from `head` to `head + 1`.
    Cas { head: u64, tail: u64 },
    /// Won position `pos`: about to write its slot and descriptor.
    Write { pos: u64 },
    /// About to store `pos`'s lap tag.
    Publish { pos: u64 },
    /// Offered every frame.
    Done,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Producer {
    pc: Prod,
    /// Index of the frame being offered.
    next: usize,
}

/// The consumer's pending step.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Cons {
    /// About to load the status under the cursor (or recycle).
    Check,
    /// The tag matched: about to read and lend the slot.
    Lend,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Model {
    head: u64,
    cached_tail: u64,
    dropped: u64,
    tail: u64,
    next_read: u64,
    status: [u32; N as usize],
    /// The frame each slot holds, tagged with the position it was
    /// written for.
    slots: [Option<(u64, u32)>; N as usize],
    /// Frame reserved at each position, in reservation order.
    reserved: Vec<u32>,
    /// Frames lent, in lend order.
    lent: Vec<u32>,
    producers: [Producer; 2],
    consumer: Cons,
}

/// What the exploration saw at least once across all schedules.
#[derive(Default)]
struct Coverage {
    terminals: u64,
    states: u64,
    cas_failed: bool,
    reloaded: bool,
    refused: bool,
    stale_lap: bool,
    wrapped: bool,
}

/// Frame `k` of producer `t`, as a distinguishable payload.
fn frame(t: usize, k: usize) -> u32 {
    (t as u32 + 1) * 100 + k as u32
}

impl Model {
    fn new() -> Self {
        let p = Producer {
            pc: Prod::LoadCache,
            next: 0,
        };
        Model {
            head: 0,
            cached_tail: 0,
            dropped: 0,
            tail: 0,
            next_read: 0,
            status: [0; N as usize],
            slots: [None; N as usize],
            reserved: Vec::new(),
            lent: Vec::new(),
            producers: [p.clone(), p],
            consumer: Cons::Check,
        }
    }

    fn producers_done(&self) -> bool {
        self.producers.iter().all(|p| p.pc == Prod::Done)
    }

    /// Moves producer `t` to its next frame, or to `Done`.
    fn next_frame(&mut self, t: usize, offers: [usize; 2]) {
        let p = &mut self.producers[t];
        p.next += 1;
        p.pc = if p.next == offers[t] {
            Prod::Done
        } else {
            Prod::LoadCache
        };
    }

    /// Executes producer `t`'s next step.
    fn step_producer(&mut self, t: usize, offers: [usize; 2], cov: &mut Coverage) {
        match self.producers[t].pc.clone() {
            Prod::LoadCache => {
                self.producers[t].pc = Prod::LoadHead {
                    tail: self.cached_tail,
                };
            }
            Prod::LoadHead { tail } => {
                self.producers[t].pc = self.room(self.head, tail);
            }
            Prod::ReloadTail { head } => {
                cov.reloaded = true;
                let tail = self.tail;
                if head.saturating_sub(tail) >= N {
                    // Refusal must be honest: at this instant the ring
                    // really holds `n` unrecycled positions.
                    assert!(self.head - self.tail >= N, "refused with room");
                    cov.refused = true;
                    self.dropped += 1;
                    self.next_frame(t, offers);
                } else {
                    self.producers[t].pc = Prod::StoreCache { head, tail };
                }
            }
            Prod::StoreCache { head, tail } => {
                self.cached_tail = tail;
                self.producers[t].pc = Prod::Cas { head, tail };
            }
            Prod::Cas { head, tail } => {
                if self.head == head {
                    self.head = head + 1;
                    let p = &self.producers[t];
                    self.reserved.push(frame(t, p.next));
                    self.producers[t].pc = Prod::Write { pos: head };
                } else {
                    // Retry from the winner's head with the same bound.
                    cov.cas_failed = true;
                    self.producers[t].pc = self.room(self.head, tail);
                }
            }
            Prod::Write { pos } => {
                // The slot's previous lap must be recycled: the consumer
                // is done reading it.
                assert!(
                    pos < self.tail + N,
                    "producer overwrote slot of position {pos} before its previous lap was recycled"
                );
                if pos >= N {
                    cov.wrapped = true;
                }
                let idx = (pos % N) as usize;
                self.slots[idx] = Some((pos, self.reserved[pos as usize]));
                self.producers[t].pc = Prod::Publish { pos };
            }
            Prod::Publish { pos } => {
                self.status[(pos % N) as usize] = lap_tag(pos);
                self.next_frame(t, offers);
            }
            Prod::Done => unreachable!("done producers are never scheduled"),
        }
    }

    /// The room check `produce` makes with `head` and a tail bound.
    fn room(&self, head: u64, tail: u64) -> Prod {
        if head.saturating_sub(tail) >= N {
            Prod::ReloadTail { head }
        } else {
            Prod::Cas { head, tail }
        }
    }

    /// Whether the consumer's tag check would pass now.
    fn published(&self) -> bool {
        self.status[(self.next_read % N) as usize] == lap_tag(self.next_read)
    }

    /// Executes the consumer's poll step (tag check or lend).
    fn step_poll(&mut self) {
        match self.consumer {
            Cons::Check => {
                assert!(self.published(), "scheduled a failing check");
                self.consumer = Cons::Lend;
            }
            Cons::Lend => {
                let pos = self.next_read;
                let (wrote, v) = self.slots[(pos % N) as usize]
                    .unwrap_or_else(|| panic!("lent empty slot at position {pos}"));
                assert_eq!(wrote, pos, "lent a stale lap at position {pos}");
                self.lent.push(v);
                self.next_read += 1;
                self.consumer = Cons::Check;
            }
        }
    }

    /// Recycles the oldest lent frame: one `tail` store.
    fn step_recycle(&mut self) {
        let pos = self.tail;
        assert!(pos < self.next_read, "recycled more than was polled");
        // The lent frame must still be intact when it is handed back.
        assert_eq!(
            self.slots[(pos % N) as usize].map(|(p, _)| p),
            Some(pos),
            "slot of position {pos} was overwritten while lent"
        );
        self.tail += 1;
    }
}

fn explore(m: Model, offers: [usize; 2], seen: &mut HashSet<Model>, cov: &mut Coverage) {
    if !seen.insert(m.clone()) {
        return;
    }
    cov.states += 1;
    if m.next_read >= N && m.status[(m.next_read % N) as usize] == lap_tag(m.next_read - N) {
        // The cursor faces a slot still tagged with the previous lap:
        // polled (maybe not yet recycled) but not yet republished.
        cov.stale_lap = true;
    }
    let mut moved = false;
    for t in 0..2 {
        if m.producers[t].pc != Prod::Done {
            let mut next = m.clone();
            next.step_producer(t, offers, cov);
            explore(next, offers, seen, cov);
            moved = true;
        }
    }
    // A failing tag check reads memory and changes nothing, so it is
    // not scheduled; the consumer simply waits for a producer to move.
    if m.consumer == Cons::Lend || m.published() {
        let mut next = m.clone();
        next.step_poll();
        explore(next, offers, seen, cov);
        moved = true;
    }
    if m.consumer == Cons::Check && m.tail < m.next_read {
        let mut next = m.clone();
        next.step_recycle();
        explore(next, offers, seen, cov);
        moved = true;
    }
    if moved {
        return;
    }
    // Nobody can move: this must be the end of the run, not a stall.
    assert!(m.producers_done(), "deadlock: {m:?}");
    assert_eq!(m.consumer, Cons::Check);
    assert_eq!(m.next_read, m.head, "published frames left unlent");
    assert_eq!(m.tail, m.next_read, "lent frames left unrecycled");
    cov.terminals += 1;
    let offered = (offers[0] + offers[1]) as u64;
    assert_eq!(m.head + m.dropped, offered, "received + dropped != offered");
    // Lent exactly once, in reservation order.
    assert_eq!(m.lent, m.reserved, "lend order differs from reservation");
    // Hence each producer's accepted frames arrive in its own order.
    for t in 0..2 {
        let mine: Vec<u32> = m
            .lent
            .iter()
            .copied()
            .filter(|v| v / 100 == t as u32 + 1)
            .collect();
        assert!(
            mine.windows(2).all(|w| w[0] < w[1]),
            "producer {t} reordered"
        );
    }
}

#[test]
fn two_producers_one_consumer_conserve_frames_under_every_interleaving() {
    for offers in [[1, 1], [2, 1], [2, 2], [3, 2]] {
        let mut cov = Coverage::default();
        let mut seen = HashSet::new();
        explore(Model::new(), offers, &mut seen, &mut cov);
        assert!(cov.terminals > 0, "exploration reached no terminal state");
        assert!(cov.cas_failed, "some schedule must lose the head CAS");
        if offers[0] + offers[1] > N as usize {
            assert!(cov.reloaded, "some schedule must reload the tail");
            assert!(cov.refused, "some schedule must refuse on a full ring");
            assert!(cov.wrapped, "some schedule must wrap the ring");
            assert!(cov.stale_lap, "some schedule must face a stale lap tag");
        }
        eprintln!(
            "shmring_interleavings: offers {offers:?}, {} states, {} terminal states",
            cov.states, cov.terminals
        );
    }
}

/// Ties the model to the real implementation: two real producers race
/// on a 2-descriptor `ShmQueue` while one consumer polls and recycles
/// in uneven batches. Conservation, per-producer order and payload
/// integrity must hold as the model proved.
#[test]
fn real_shm_queue_matches_model_under_contention() {
    const PER_PRODUCER: u32 = 20_000;
    let nic = ShmRingNic::new(1, N as usize);
    let done = Arc::new(AtomicBool::new(false));
    let producers: Vec<_> = (0..2u32)
        .map(|t| {
            let ring = nic.ring(0);
            std::thread::spawn(move || {
                let mut refused = 0u64;
                for i in 0..PER_PRODUCER {
                    let mut payload = [0u8; 64];
                    payload[..4].copy_from_slice(&t.to_le_bytes());
                    payload[4..8].copy_from_slice(&i.to_le_bytes());
                    payload[8..].fill((t * 7 + i) as u8);
                    if !ring.produce(u64::from(i), 64, &payload).unwrap() {
                        refused += 1;
                    }
                }
                refused
            })
        })
        .collect();
    let consumer = {
        let queue = CaptureBackend::queue(&*nic, 0);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut last: [Option<u32>; 2] = [None; 2];
            let (mut lent, mut unrecycled, mut round) = (0u64, 0usize, 0usize);
            loop {
                let polled = queue
                    .poll_batch(1 + round % 2, &mut |f: RxFrame<'_>| {
                        let t = u32::from_le_bytes(f.data[..4].try_into().unwrap());
                        let i = u32::from_le_bytes(f.data[4..8].try_into().unwrap());
                        assert!(t < 2 && f.data.len() == 64);
                        assert_eq!(u64::from(i), f.ts_ns, "descriptor from another frame");
                        assert!(f.data[8..].iter().all(|&b| b == (t * 7 + i) as u8));
                        assert!(last[t as usize].is_none_or(|p| p < i), "reordered");
                        last[t as usize] = Some(i);
                    })
                    .unwrap();
                lent += polled as u64;
                unrecycled += polled;
                // Uneven partial recycles: sometimes one, sometimes all.
                let give = if round % 3 == 0 {
                    unrecycled.min(1)
                } else {
                    unrecycled
                };
                queue.recycle(give).unwrap();
                unrecycled -= give;
                round += 1;
                if polled == 0 {
                    if done.load(Ordering::Acquire) && queue.depth() == 0 {
                        queue.recycle(unrecycled).unwrap();
                        return lent;
                    }
                    std::thread::yield_now();
                }
            }
        })
    };
    let refused: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
    done.store(true, Ordering::Release);
    let lent = consumer.join().unwrap();
    let a = nic.ring(0).accounting();
    assert_eq!(a.received, lent, "accepted frames not lent exactly once");
    assert_eq!(a.dropped, refused);
    assert_eq!(a.received + a.dropped, 2 * u64::from(PER_PRODUCER));
    assert_eq!(a.ring_used, 0);
    assert!(
        refused > 0,
        "a 2-descriptor ring under two producers must fill"
    );
}
