//! Exhaustive two-thread interleaving check for the claim CAS protocol
//! (`wirecap::claim::ClaimQueue::try_claim`, DESIGN.md §4.11).
//!
//! Loom is not available in this tree, so this is a hand-rolled model
//! checker: the consumer side of the protocol is restated as an
//! explicit step machine — one step per shared-memory access, exactly
//! mirroring `claim.rs` —
//!
//! 1. load `claim_pos`,
//! 2. load the target cell's ticket (then branch on
//!    published / empty / stale, a thread-local decision),
//! 3. CAS `claim_pos` forward (failure is the `Contended` outcome),
//! 4. read the value and release the ticket a lap ahead,
//!
//! and a DFS enumerates *every* interleaving of two claimer threads
//! over a prefilled, closed queue. Each terminal state must satisfy:
//! every item claimed exactly once (the step machine panics on a
//! double-take), both threads terminated via `Empty`, and the cursor
//! and tickets left exactly one lap ahead. A step budget bounds each
//! path, so a livelocking schedule fails loudly instead of hanging.
//!
//! The model checks the protocol's *logic* under sequential
//! consistency; the (stricter-than-needed) Acquire/Release pairing of
//! the real implementation is argued in `claim.rs`. A final smoke test
//! drives the real `ClaimQueue` through the schedule shapes the model
//! flags as interesting (contended claims) to tie the model to the
//! implementation.

use wirecap::{Claim, ClaimQueue};

const CAP: usize = 4;
const MASK: usize = CAP - 1;

/// Program counter of one modeled claimer, one variant per pending
/// shared-memory access.
#[derive(Clone, Debug)]
enum Pc {
    /// About to load `claim_pos`.
    Start,
    /// About to load the ticket of the cell at `pos`.
    LoadTicket { pos: usize },
    /// Ticket said published-and-unclaimed: about to CAS the cursor.
    Cas { pos: usize },
    /// Won the CAS: about to take the value and release the ticket.
    Take { pos: usize },
    /// Observed `Empty` on a closed queue: exited.
    Done,
}

#[derive(Clone)]
struct ThreadState {
    pc: Pc,
    claimed: Vec<u64>,
    contended: u32,
}

#[derive(Clone)]
struct Model {
    claim_pos: usize,
    tickets: [usize; CAP],
    values: [Option<u64>; CAP],
    threads: [ThreadState; 2],
    steps: u32,
}

impl Model {
    /// A closed queue prefilled with `items` (published at positions
    /// `0..items.len()`), exactly as `ClaimQueue::new` + `push` × n +
    /// `producer_done` leaves it.
    fn new(items: &[u64]) -> Self {
        assert!(items.len() <= CAP);
        let mut tickets = [0usize; CAP];
        let mut values = [None; CAP];
        for (i, t) in tickets.iter_mut().enumerate() {
            *t = i; // empty cell awaiting producer lap 0
        }
        for (pos, &v) in items.iter().enumerate() {
            values[pos] = Some(v);
            tickets[pos] = pos + 1; // published
        }
        let t = ThreadState {
            pc: Pc::Start,
            claimed: Vec::new(),
            contended: 0,
        };
        Model {
            claim_pos: 0,
            tickets,
            values,
            threads: [t.clone(), t],
            steps: 0,
        }
    }

    /// Executes thread `t`'s next atomic step.
    fn step(&mut self, t: usize, published: usize) {
        let pc = self.threads[t].pc.clone();
        match pc {
            Pc::Start => {
                let pos = self.claim_pos;
                self.threads[t].pc = Pc::LoadTicket { pos };
            }
            Pc::LoadTicket { pos } => {
                let ticket = self.tickets[pos & MASK] as isize;
                let dif = ticket - (pos as isize + 1);
                self.threads[t].pc = if dif == 0 {
                    Pc::Cas { pos }
                } else if dif < 0 {
                    // Empty. The real worker exits when the queue is
                    // also closed and empty; the model's queue is
                    // closed and a not-yet-published cell here can
                    // only be past the last item.
                    assert!(pos >= published, "spurious Empty at pos {pos}");
                    Pc::Done
                } else {
                    // Stale cursor: a peer claimed past this cell.
                    self.threads[t].contended += 1;
                    Pc::Start
                };
            }
            Pc::Cas { pos } => {
                if self.claim_pos == pos {
                    self.claim_pos = pos + 1;
                    self.threads[t].pc = Pc::Take { pos };
                } else {
                    // Lost the race — the explicit Contended outcome.
                    self.threads[t].contended += 1;
                    self.threads[t].pc = Pc::Start;
                }
            }
            Pc::Take { pos } => {
                let v = self.values[pos & MASK]
                    .take()
                    .unwrap_or_else(|| panic!("double claim of cell {pos}"));
                self.threads[t].claimed.push(v);
                self.tickets[pos & MASK] = pos + MASK + 1; // next lap
                self.threads[t].pc = Pc::Start;
            }
            Pc::Done => unreachable!("done threads are never scheduled"),
        }
    }
}

struct Stats {
    terminals: u64,
    max_contended: u32,
}

/// DFS over every interleaving; asserts each terminal state.
fn explore(model: Model, items: &[u64], stats: &mut Stats) {
    assert!(
        model.steps < 200,
        "step budget exceeded — livelock in the claim protocol model"
    );
    let runnable: Vec<usize> = (0..2)
        .filter(|&t| !matches!(model.threads[t].pc, Pc::Done))
        .collect();
    if runnable.is_empty() {
        stats.terminals += 1;
        stats.max_contended = stats
            .max_contended
            .max(model.threads[0].contended + model.threads[1].contended);
        // Every item claimed exactly once, across the two threads.
        let mut all: Vec<u64> = model.threads[0]
            .claimed
            .iter()
            .chain(model.threads[1].claimed.iter())
            .copied()
            .collect();
        all.sort_unstable();
        let mut want = items.to_vec();
        want.sort_unstable();
        assert_eq!(all, want, "items lost or duplicated");
        // Cursor consumed exactly the published prefix; every consumed
        // cell's ticket is one lap ahead.
        assert_eq!(model.claim_pos, items.len());
        for pos in 0..items.len() {
            assert_eq!(model.tickets[pos & MASK], pos + MASK + 1);
            assert!(model.values[pos & MASK].is_none());
        }
        return;
    }
    for t in runnable {
        let mut next = model.clone();
        next.steps += 1;
        next.step(t, items.len());
        explore(next, items, stats);
    }
}

#[test]
fn two_claimers_conserve_items_under_every_interleaving() {
    for items in [&[10u64][..], &[10, 20][..], &[10, 20, 30][..]] {
        let mut stats = Stats {
            terminals: 0,
            max_contended: 0,
        };
        explore(Model::new(items), items, &mut stats);
        assert!(stats.terminals > 0, "exploration reached no terminal state");
        if items.len() >= 2 {
            assert!(
                stats.max_contended > 0,
                "some schedule must exercise the Contended outcome"
            );
        }
        eprintln!(
            "claim_interleavings: {} items, {} terminal schedules, max contended {}",
            items.len(),
            stats.terminals,
            stats.max_contended
        );
    }
}

/// Ties the model to the real implementation: two real threads hammer
/// a small real `ClaimQueue`; conservation and the visible `Contended`
/// outcome must match what the model proved.
#[test]
fn real_claim_queue_matches_model_under_two_threads() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const N: u64 = 20_000;
    let q = Arc::new(ClaimQueue::new(CAP, 1));
    let sum = Arc::new(AtomicU64::new(0));
    let count = Arc::new(AtomicU64::new(0));
    let contended = Arc::new(AtomicU64::new(0));
    let claimers: Vec<_> = (0..2)
        .map(|_| {
            let q = Arc::clone(&q);
            let sum = Arc::clone(&sum);
            let count = Arc::clone(&count);
            let contended = Arc::clone(&contended);
            std::thread::spawn(move || loop {
                match q.try_claim() {
                    Claim::Claimed(v) => {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                    Claim::Contended => {
                        contended.fetch_add(1, Ordering::Relaxed);
                        std::hint::spin_loop();
                    }
                    Claim::Empty => {
                        if q.is_closed() && q.is_empty() {
                            return;
                        }
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    for i in 1..=N {
        while q.push(i).is_err() {
            std::thread::yield_now();
        }
    }
    q.producer_done();
    for c in claimers {
        c.join().unwrap();
    }
    assert_eq!(count.load(Ordering::Relaxed), N, "items lost or duplicated");
    assert_eq!(sum.load(Ordering::Relaxed), N * (N + 1) / 2);
}
