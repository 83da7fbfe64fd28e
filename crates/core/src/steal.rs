//! Multi-core delivery: the consumer pool, adaptive polling, and core
//! pinning (DESIGN.md §4.11).
//!
//! Every sealed chunk reaches its consumer through one primitive: the
//! target queue's lock-free [`ClaimQueue`] (COREC-style, after
//! "Concurrent Non-Blocking Single-Queue Receive Driver for Low Latency
//! Networking"). A [`LiveConsumer`](crate::LiveConsumer) pulls from one
//! queue's claim queue; this module's [`ConsumerPool`] pushes chunks
//! into a handler from N worker threads that claim from *every* queue
//! of one [`BuddyGroup`]:
//!
//! * each worker scans the group's claim queues in rotated order, so an
//!   idle worker picks up a busy queue's backlog at the sealed-chunk
//!   handoff — rebalancing **before** the capture queue ever climbs
//!   toward the offload threshold T — and even one scorching queue is
//!   drained by all N workers at once, oldest chunk first;
//! * a lost claim CAS feeds the `claim_contention` counter and the
//!   poller's cheap [`AdaptivePoller::lost_race`] reset instead of
//!   restarting the full spin→yield→park ladder;
//! * with `cfg.in_order`, a per-queue [`ReorderBuffer`] re-serializes
//!   the concurrently claimed stream into seal order;
//! * an [`AdaptivePoller`] (spin → `yield_now` → parked-with-wakeup on
//!   a [`WakeupGate`]) lets idle capture and worker threads stop burning
//!   the cycles busy threads need — on oversubscribed hosts this, not
//!   parallelism, is where the scaling headroom lives;
//! * optional core pinning ([`pin_to_core`]) behind a shim, so builds
//!   without `sched_setaffinity` still compile and run.
//!
//! Recycling stays home-pool-only exactly as the offload path does:
//! claiming moves the *handle*, never the payload, and the slot always
//! returns to `recycle[chunk.home()]`.
//!
//! The module also keeps a bounded work-stealing deque
//! ([`steal_deque`]) as a standalone primitive. No engine code uses it;
//! it remains for its microbenchmark.

use crate::arena::ChunkView;
use crate::buddy::BuddyGroup;
use crate::claim::{Claim, ClaimQueue, ReorderBuffer};
use crate::config::WireCapConfig;
use crate::live::{LiveChunk, Shared};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;
use telemetry::{clock, SpanRecord, WorkerState, WorkerTimeState};

pub use crate::affinity::{available_cores, pin_to_core};

/// Chunks a pool worker claims from one queue before moving on to the
/// next queue of its scan.
const PROCESS_BURST: usize = 8;

// ---------------------------------------------------------------------
// Bounded work-stealing deque
// ---------------------------------------------------------------------

/// The owner's endpoint of a bounded work-stealing deque: push and pop
/// at the back. Created by [`steal_deque`]; there is exactly one owner.
#[derive(Debug)]
pub struct DequeOwner<T> {
    inner: Arc<Inner<T>>,
}

/// A thief's endpoint of a bounded work-stealing deque: [`steal`]
/// takes the *oldest* item. Cheap to clone; any number of thieves may
/// race.
///
/// [`steal`]: DequeStealer::steal
#[derive(Debug)]
pub struct DequeStealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for DequeStealer<T> {
    fn clone(&self) -> Self {
        DequeStealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Outcome of a [`DequeStealer::steal`] attempt.
#[derive(Debug)]
pub enum Steal<T> {
    /// The deque was empty at the time of the attempt.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Took the oldest item.
    Success(T),
}

/// The deque's shared state: a mutex-guarded ring bounded at
/// `capacity`. Safe code throughout; a thief holds the lock for one pop
/// at most.
#[derive(Debug)]
struct Inner<T> {
    items: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T> Inner<T> {
    /// Spins on `try_lock` instead of blocking in `lock`: the holder
    /// releases within one push or pop, and every acquisition stays on
    /// atomics that ThreadSanitizer instruments (the blocking path
    /// acquires inside the precompiled standard library, which TSan
    /// cannot see, and reports a false data race).
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        loop {
            match self.items.try_lock() {
                Ok(items) => return items,
                Err(TryLockError::Poisoned(e)) => return e.into_inner(),
                Err(TryLockError::WouldBlock) => std::thread::yield_now(),
            }
        }
    }

    fn len(&self) -> usize {
        self.lock().len()
    }
}

/// Creates a bounded work-stealing deque holding at most `capacity`
/// items (rounded up to a power of two). The owner endpoint pushes and
/// pops LIFO at the back; stealers take FIFO at the front.
pub fn steal_deque<T>(capacity: usize) -> (DequeOwner<T>, DequeStealer<T>) {
    let capacity = capacity.max(2).next_power_of_two();
    let inner = Arc::new(Inner {
        items: Mutex::new(VecDeque::with_capacity(capacity)),
        capacity,
    });
    (
        DequeOwner {
            inner: Arc::clone(&inner),
        },
        DequeStealer { inner },
    )
}

impl<T> DequeOwner<T> {
    /// Pushes at the back. Returns the value back when the deque is
    /// full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let mut items = self.inner.lock();
        if items.len() >= self.inner.capacity {
            return Err(value);
        }
        items.push_back(value);
        Ok(())
    }

    /// Pops the most recently pushed item (thieves take the oldest).
    pub fn pop(&mut self) -> Option<T> {
        self.inner.lock().pop_back()
    }

    /// Items currently queued (racy under concurrent steals).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is queued (racy under concurrent steals).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> DequeStealer<T> {
    /// Attempts to take the oldest item; [`Steal::Retry`] when the
    /// owner or another thief holds the deque.
    pub fn steal(&self) -> Steal<T> {
        let mut items = match self.inner.items.try_lock() {
            Ok(items) => items,
            Err(TryLockError::WouldBlock) => return Steal::Retry,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        };
        match items.pop_front() {
            Some(value) => Steal::Success(value),
            None => Steal::Empty,
        }
    }

    /// Items currently queued (racy estimate).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing appears queued (racy estimate).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// Wakeup gate + adaptive polling
// ---------------------------------------------------------------------

/// An eventcount-style wakeup gate: waiters take a [`ticket`], re-check
/// their work source, then [`park`]; notifiers bump a sequence number
/// and only touch the mutex when somebody is actually parked — so the
/// hot-path cost of `notify` with no sleepers is one relaxed load.
///
/// Parks are always timeout-bounded, so the one tolerated race (a
/// notify landing between the caller's last work check and its ticket
/// read) costs at most one park timeout, never a hang.
///
/// [`ticket`]: WakeupGate::ticket
/// [`park`]: WakeupGate::park
#[derive(Debug, Default)]
pub struct WakeupGate {
    seq: AtomicU64,
    parked: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl WakeupGate {
    /// Creates a gate with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wakes every parked waiter. Cheap when nobody is parked: one
    /// sequence bump and one load, no mutex.
    pub fn notify(&self) {
        self.seq.fetch_add(1, Ordering::Release);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    /// The current sequence number. Take it *before* the final
    /// is-there-work check, then pass it to [`park`](Self::park): any
    /// notify after the ticket was taken returns the park immediately.
    pub fn ticket(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Parks the calling thread until a notify arrives after `ticket`
    /// was taken, or `timeout` elapses. Returns `true` when woken by a
    /// notify (sequence advanced), `false` on timeout.
    pub fn park(&self, ticket: u64, timeout: Duration) -> bool {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = std::time::Instant::now() + timeout;
        let mut woken = self.seq.load(Ordering::Acquire) != ticket;
        while !woken {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            let (g, _timed_out) = self
                .cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
            woken = self.seq.load(Ordering::Acquire) != ticket;
        }
        drop(guard);
        self.parked.fetch_sub(1, Ordering::SeqCst);
        woken
    }

    /// Waiters currently parked (diagnostic).
    pub fn parked(&self) -> u64 {
        self.parked.load(Ordering::SeqCst)
    }
}

/// What one [`AdaptivePoller::idle`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleStep {
    /// Busy-spun (`spin_loop` hints) — the cheapest-latency stage.
    Spun,
    /// Yielded the timeslice to other runnable threads.
    Yielded,
    /// Parked on the gate until notify or timeout.
    Parked,
}

/// The three-stage idle strategy for capture and pool-worker threads:
/// spin for `spin_iters` idle rounds (lowest wakeup latency), yield for
/// the next `yield_iters` rounds (lets co-scheduled threads run), then
/// park on a [`WakeupGate`] with a bounded timeout (stops burning the
/// CPU other threads need). Any sign of work resets to the spin stage.
///
/// Thresholds come from [`WireCapConfig`]: `spin_iters`, `yield_iters`,
/// `park_timeout_ns`.
#[derive(Debug)]
pub struct AdaptivePoller {
    spin_iters: u32,
    yield_iters: u32,
    park_timeout: Duration,
    idle_rounds: u32,
}

impl AdaptivePoller {
    /// A poller with explicit stage thresholds.
    pub fn new(spin_iters: u32, yield_iters: u32, park_timeout_ns: u64) -> Self {
        AdaptivePoller {
            spin_iters,
            yield_iters,
            park_timeout: Duration::from_nanos(park_timeout_ns.max(1)),
            idle_rounds: 0,
        }
    }

    /// A poller using the thresholds in `cfg`.
    pub fn from_config(cfg: &WireCapConfig) -> Self {
        Self::new(cfg.spin_iters, cfg.yield_iters, cfg.park_timeout_ns)
    }

    /// Work happened: fall back to the spin stage.
    pub fn reset(&mut self) {
        self.idle_rounds = 0;
    }

    /// A claim CAS race was lost: work exists, a peer just
    /// took it. Re-spinning from zero would burn the full spin budget
    /// re-contending the same cache line, so jump straight to the
    /// yield stage — and pin there: contention alone never escalates
    /// to a park, only a truly empty stream may. With a zero yield
    /// budget this instead holds one round short of the park stage.
    pub fn lost_race(&mut self) {
        let hi = self
            .spin_iters
            .saturating_add(self.yield_iters)
            .saturating_sub(1);
        let lo = self.spin_iters.min(hi);
        self.idle_rounds = self.idle_rounds.clamp(lo, hi.max(lo));
    }

    /// One idle round with the park timeout capped at `max_park`
    /// (capture threads holding a non-empty partial chunk cap the park
    /// at the remaining capture timeout so the partial-delivery
    /// deadline cannot be overslept). Take `ticket` from the gate
    /// *before* the final work check.
    pub fn idle_capped(&mut self, gate: &WakeupGate, ticket: u64, max_park: Duration) -> IdleStep {
        let step = if self.idle_rounds < self.spin_iters {
            std::hint::spin_loop();
            IdleStep::Spun
        } else if self.idle_rounds < self.spin_iters.saturating_add(self.yield_iters) {
            std::thread::yield_now();
            IdleStep::Yielded
        } else {
            gate.park(ticket, self.park_timeout.min(max_park));
            IdleStep::Parked
        };
        self.idle_rounds = self.idle_rounds.saturating_add(1);
        step
    }

    /// One idle round: spin, yield, or park according to how many idle
    /// rounds have passed since the last [`reset`](Self::reset).
    pub fn idle(&mut self, gate: &WakeupGate, ticket: u64) -> IdleStep {
        self.idle_capped(gate, ticket, Duration::MAX)
    }
}

// ---------------------------------------------------------------------
// Consumer pool
// ---------------------------------------------------------------------

/// One delivered chunk as a pool handler sees it: the borrowed packet
/// view plus delivery metadata. The pool recycles the chunk to its home
/// pool when the handler returns; the borrow rules make it impossible
/// for packet slices to escape that window.
pub struct PoolDelivery<'a> {
    chunk: &'a LiveChunk,
    view: ChunkView<'a>,
    worker: usize,
    stolen: bool,
}

impl<'a> PoolDelivery<'a> {
    /// The packets of the chunk, borrowed zero-copy from its home arena.
    pub fn view(&self) -> &ChunkView<'a> {
        &self.view
    }

    /// The chunk handle (home queue, offload flag, length).
    pub fn chunk(&self) -> &LiveChunk {
        self.chunk
    }

    /// Packets in the chunk.
    pub fn len(&self) -> usize {
        self.chunk.len()
    }

    /// True if the chunk holds no packets.
    pub fn is_empty(&self) -> bool {
        self.chunk.is_empty()
    }

    /// The queue whose pool owns the chunk's cells.
    pub fn home(&self) -> usize {
        self.chunk.home()
    }

    /// The pool worker index processing this chunk.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Whether the chunk's home queue lies outside this worker's shard
    /// of the group — the worker claimed it to help a queue it does not
    /// own.
    pub fn stolen(&self) -> bool {
        self.stolen
    }

    /// Seal-order sequence number within the chunk's home queue. With
    /// `in_order` set, deliveries for one home queue carry strictly
    /// increasing values.
    pub fn seq(&self) -> u64 {
        self.chunk.seq()
    }
}

impl std::fmt::Debug for PoolDelivery<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolDelivery")
            .field("home", &self.home())
            .field("len", &self.len())
            .field("worker", &self.worker)
            .field("stolen", &self.stolen)
            .finish()
    }
}

/// What one pool worker did over its lifetime, returned by
/// [`ConsumerPool::join`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolWorkerReport {
    /// The worker's index in the pool.
    pub worker: usize,
    /// Chunks processed.
    pub chunks: u64,
    /// Packets delivered to the handler.
    pub packets: u64,
    /// Of the processed chunks, how many were homed on a queue outside
    /// this worker's shard (see [`PoolDelivery::stolen`]).
    pub stolen_chunks: u64,
    /// Times the worker parked on the delivery gate.
    pub parks: u64,
}

/// The handler a [`ConsumerPool`] runs for every delivered chunk.
pub type PoolHandler = dyn Fn(PoolDelivery<'_>) + Send + Sync;

/// N worker threads claiming chunks from every queue of one buddy
/// group (see the module docs). Create one with
/// `LiveWireCap::consumer_pool`; the pool
/// assumes it is the group's only consumer — do not also attach
/// `LiveConsumer`s to the same queues.
pub struct ConsumerPool {
    handles: Vec<JoinHandle<PoolWorkerReport>>,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for ConsumerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsumerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

struct WorkerCtx {
    worker: usize,
    /// Queues this worker owns (a disjoint shard of the group): its
    /// latency shard, its park attribution, and the home queues whose
    /// chunks do not count as stolen.
    owned: Vec<usize>,
    /// Every queue of the group; the worker claims from all of them.
    members: Vec<usize>,
    shared: Arc<Shared>,
    cfg: WireCapConfig,
    stop: Arc<AtomicBool>,
    handler: Arc<PoolHandler>,
    pin_core: Option<usize>,
}

impl ConsumerPool {
    pub(crate) fn spawn(
        shared: Arc<Shared>,
        cfg: WireCapConfig,
        group: &BuddyGroup,
        workers: usize,
        handler: Arc<PoolHandler>,
    ) -> Self {
        assert!(workers > 0, "a consumer pool needs at least one worker");
        let queues = shared.claims.len();
        for &q in group.members() {
            assert!(q < queues, "group queue {q} out of range");
        }
        let stop = Arc::new(AtomicBool::new(false));
        let cores = available_cores();
        let handles = (0..workers)
            .map(|w| {
                let ctx = WorkerCtx {
                    worker: w,
                    owned: group.worker_shard(w, workers),
                    members: group.members().to_vec(),
                    shared: Arc::clone(&shared),
                    cfg,
                    stop: Arc::clone(&stop),
                    handler: Arc::clone(&handler),
                    // Workers sit after the capture threads in the core
                    // map so, with enough cores, capture and delivery
                    // never compete for the same one.
                    pin_core: cfg.pin_threads.then_some((queues + w) % cores),
                };
                std::thread::Builder::new()
                    .name(format!("wirecap-pool-{w}"))
                    .spawn(move || claim_loop(ctx))
                    .expect("spawning pool worker")
            })
            .collect();
        ConsumerPool {
            handles,
            shared,
            stop,
        }
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Waits for every worker to finish naturally — they exit when all
    /// of the group's claim queues are closed and drained (i.e. after
    /// the engine's capture threads have shut down).
    pub fn join(mut self) -> Vec<PoolWorkerReport> {
        self.handles
            .drain(..)
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    }

    /// Forces the workers down without waiting for end-of-stream.
    /// Chunks still queued are recycled home and counted as delivery
    /// drops, preserving slot and packet conservation.
    pub fn stop(self) -> Vec<PoolWorkerReport> {
        self.stop.store(true, Ordering::SeqCst);
        self.shared.delivery_gate.notify();
        self.join()
    }
}

impl Drop for ConsumerPool {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        self.shared.delivery_gate.notify();
        for h in self.handles.drain(..) {
            if h.join().is_err() {
                eprintln!("wirecap: pool worker panicked during drop");
            }
        }
    }
}

/// Charges wall time to one pool worker's time-state buckets
/// (`telemetry::WorkerState`, DESIGN.md §4.14). Constructed only when
/// span tracing is on, so the unprofiled hot path pays nothing — not
/// even the clock reads.
struct WorkerProfiler {
    state: Arc<WorkerState>,
    last_ns: u64,
}

impl WorkerProfiler {
    fn new(state: Arc<WorkerState>) -> Self {
        WorkerProfiler {
            state,
            last_ns: clock::mono_ns(),
        }
    }

    /// Charges the wall time since the previous charge to state `s`.
    fn charge(&mut self, s: WorkerTimeState) {
        let now = clock::mono_ns();
        self.state.account(s, now.saturating_sub(self.last_ns));
        self.last_ns = now;
    }

    /// Charges an idle step to its matching bucket.
    fn charge_idle(&mut self, step: IdleStep) {
        self.charge(match step {
            IdleStep::Spun => WorkerTimeState::Spin,
            IdleStep::Yielded => WorkerTimeState::Yield,
            IdleStep::Parked => WorkerTimeState::Park,
        });
    }
}

/// Builds a worker's profiler when span tracing is enabled.
fn profiler_for(ctx: &WorkerCtx) -> Option<WorkerProfiler> {
    (ctx.cfg.span_sample_n > 0)
        .then(|| WorkerProfiler::new(ctx.shared.tel.register_worker(ctx.worker as u32)))
}

/// Processes one chunk: hands it to the handler, closes the latency
/// interval, recycles the slot home, and tallies delivery telemetry.
///
/// The delivery stamp is read here, once per chunk: a worker runs the
/// handler between chunks (and in in-order mode the pump holder also
/// delivers chunks its peers parked), so any stamp read earlier would
/// predate this chunk's delivery by whole service times.
fn process_chunk(ctx: &WorkerCtx, report: &mut PoolWorkerReport, mut chunk: LiveChunk) {
    let delivered_ns = clock::mono_ns();
    let home = chunk.home();
    let len = chunk.len() as u64;
    let stolen = !ctx.owned.contains(&home);
    // Sampled chunk: the handler call is the deliver stage (the claim
    // stamps were set at the winning CAS).
    if let Some(span) = chunk.span.as_mut() {
        span.deliver_start_ns = delivered_ns;
    }
    {
        let view = ctx.shared.arenas[home].view(&chunk.seal);
        (ctx.handler)(PoolDelivery {
            chunk: &chunk,
            view,
            worker: ctx.worker,
            stolen,
        });
    }
    if let Some(span) = chunk.span.as_mut() {
        span.deliver_end_ns = clock::mono_ns();
    }
    report.chunks += 1;
    report.packets += len;
    report.stolen_chunks += u64::from(stolen);
    // Multi-writer delivery accounting: any worker may recycle any
    // group queue's chunks, so this uses the fetch-add counters, same
    // as offloaded-chunk recycling does from foreign consumers.
    let app = &ctx.shared.tel.queue(home).app;
    app.delivered_packets.add(len);
    app.recycled_chunks.add(1);
    // Latency histograms are single-writer: each worker records into
    // its *first owned* queue's shard (shards are disjoint across
    // workers; queue-less workers skip the sample).
    if let Some(&pq) = ctx.owned.first() {
        let sealed_ns = chunk.seal.sealed_ns();
        if sealed_ns > 0 {
            ctx.shared
                .tel
                .queue(pq)
                .app
                .latency_ns
                .record(delivered_ns.saturating_sub(sealed_ns));
        }
    }
    // Sampled chunk: decompose the interval into stages (same shard
    // discipline as `latency_ns`) and retire the span to the shared
    // ring, which is lock-protected and safe from any worker.
    if let Some(span) = chunk.span {
        let rec = SpanRecord::from_stamps(
            chunk.home,
            chunk.seq,
            len as u32,
            Some(ctx.worker as u32),
            stolen,
            &span,
            span.deliver_end_ns,
        );
        ctx.shared.retire_span(ctx.owned.first().copied(), rec);
    }
    ctx.shared.recycle_home(chunk);
}

/// The pool worker loop: every worker claims sealed chunks straight off
/// the group's shared [`ClaimQueue`]s, so N workers drain even a single
/// hot queue concurrently. The claim CAS *is* the load balancer.
fn claim_loop(ctx: WorkerCtx) -> PoolWorkerReport {
    if let Some(core) = ctx.pin_core {
        pin_to_core(core);
    }
    let mut report = PoolWorkerReport {
        worker: ctx.worker,
        ..Default::default()
    };
    let mut poller = AdaptivePoller::from_config(&ctx.cfg);
    let claims = &ctx.shared.claims;
    let reorder = ctx.shared.reorder.as_deref();
    let members = ctx.members.len();
    let mut prof = profiler_for(&ctx);
    loop {
        // Forced stop: drain every member claim queue home as delivery
        // drops, then sweep the reorder buffers for stranded chunks.
        // Each worker runs this sweep *after* its own last insert, so a
        // chunk it parked behind a gap is reclaimed by its own sweep
        // even if the other workers swept earlier.
        if ctx.stop.load(Ordering::SeqCst) {
            stop_drain(&ctx, claims, reorder);
            break;
        }

        let mut claimed = false;
        let mut contended = false;
        for i in 0..members {
            // Rotate the scan start per worker so N workers don't all
            // hammer the same queue's claim cursor first.
            let q = ctx.members[(ctx.worker + i) % members];
            for _ in 0..PROCESS_BURST {
                match claims[q].try_claim() {
                    Claim::Claimed(mut chunk) => {
                        claimed = true;
                        // The winning CAS is the whole acquisition (the
                        // claim stage is the CAS itself); reorder-buffer
                        // dwell then lands in the reorder stage.
                        if let Some(span) = chunk.span.as_mut() {
                            let claimed_ns = clock::mono_ns();
                            span.acquire_started_ns = claimed_ns;
                            span.acquired_ns = claimed_ns;
                        }
                        deliver_claimed(&ctx, &mut report, reorder, chunk);
                    }
                    Claim::Contended => {
                        ctx.shared.tel.queue(q).pool.claim_contention.inc();
                        contended = true;
                        break;
                    }
                    Claim::Empty => break,
                }
            }
        }
        if let Some(p) = prof.as_mut() {
            // The claim scan delivers inline, so a round that claimed
            // anything is deliver time; an empty round is claim time.
            p.charge(if claimed {
                WorkerTimeState::Deliver
            } else {
                WorkerTimeState::Claim
            });
        }
        if claimed {
            poller.reset();
            continue;
        }
        if contended {
            // Lost the claim race only: work exists and a peer has it.
            // Skip the spin budget (re-spinning re-contends the same
            // cursor line) but never park from contention alone.
            poller.lost_race();
            let ticket = ctx.shared.delivery_gate.ticket();
            let step = poller.idle(&ctx.shared.delivery_gate, ticket);
            if let Some(p) = prof.as_mut() {
                p.charge_idle(step);
            }
            continue;
        }

        // Ticket before the end-of-stream check: a publish (or close)
        // after this point turns the park into a no-op.
        let ticket = ctx.shared.delivery_gate.ticket();
        let drained = ctx
            .members
            .iter()
            .all(|&q| claims[q].is_closed() && claims[q].is_empty())
            && reorder.is_none_or(|ro| ctx.members.iter().all(|&q| ro[q].is_empty()));
        if drained {
            // Any chunk a peer has claimed but not yet delivered is
            // that peer's to deliver (or, in in-order mode, to insert
            // and pump — the inserting worker always pumps, so no gap
            // survives a natural end-of-stream).
            break;
        }
        let step = poller.idle(&ctx.shared.delivery_gate, ticket);
        if let Some(p) = prof.as_mut() {
            p.charge_idle(step);
        }
        if step == IdleStep::Parked {
            report.parks += 1;
            // Every queue this worker owns loses a consumer for the
            // park's duration, so each owned queue's shard counts it
            // (see `PoolSide::worker_parks`).
            for &q in &ctx.owned {
                ctx.shared.tel.queue(q).pool.worker_parks.inc();
            }
        }
    }
    report
}

/// Delivers one claimed chunk: straight to the handler in unordered
/// mode, or through the home queue's reorder buffer in in-order mode.
fn deliver_claimed(
    ctx: &WorkerCtx,
    report: &mut PoolWorkerReport,
    reorder: Option<&[ReorderBuffer<LiveChunk>]>,
    chunk: LiveChunk,
) {
    let Some(ro) = reorder else {
        process_chunk(ctx, report, chunk);
        return;
    };
    // Claimed after stop was raised: drop instead of parking it in the
    // reorder buffer — ordering is void during teardown, and the stop
    // sweep may already have passed this buffer.
    if ctx.stop.load(Ordering::SeqCst) {
        ctx.shared.drop_chunk(chunk);
        return;
    }
    let buf = &ro[chunk.home()];
    let home = chunk.home();
    buf.insert(chunk.seq(), chunk);
    let delivered = buf.pump(|_seq, c| process_chunk(ctx, report, c));
    ctx.shared
        .tel
        .queue(home)
        .pool
        .reorder_occupancy
        .set(buf.len());
    if delivered > 0 {
        // Wake peers whose end-of-stream check waits on the reorder
        // buffers draining.
        ctx.shared.delivery_gate.notify();
    }
}

/// Forced-stop sweep: claim-drain every member
/// queue, then reclaim anything stranded behind a gap in the reorder
/// buffers. Everything goes home as a delivery drop.
fn stop_drain(
    ctx: &WorkerCtx,
    claims: &[ClaimQueue<LiveChunk>],
    reorder: Option<&[ReorderBuffer<LiveChunk>]>,
) {
    for &q in &ctx.members {
        loop {
            match claims[q].try_claim() {
                Claim::Claimed(chunk) => ctx.shared.drop_chunk(chunk),
                Claim::Contended => std::hint::spin_loop(),
                Claim::Empty => break,
            }
        }
    }
    if let Some(ro) = reorder {
        for &q in &ctx.members {
            for chunk in ro[q].take_stranded() {
                ctx.shared.drop_chunk(chunk);
            }
            ctx.shared.tel.queue(q).pool.reorder_occupancy.set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deque_owner_is_lifo_stealer_is_fifo() {
        let (mut owner, stealer) = steal_deque::<u32>(8);
        for v in 0..4 {
            owner.push(v).unwrap();
        }
        assert_eq!(owner.len(), 4);
        assert_eq!(owner.pop(), Some(3), "owner pops newest");
        match stealer.steal() {
            Steal::Success(v) => assert_eq!(v, 0, "thief takes oldest"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(owner.pop(), Some(2));
        assert_eq!(owner.pop(), Some(1));
        assert_eq!(owner.pop(), None);
        assert!(matches!(stealer.steal(), Steal::Empty));
    }

    #[test]
    fn deque_reports_full() {
        let (mut owner, _stealer) = steal_deque::<u32>(2);
        owner.push(1).unwrap();
        owner.push(2).unwrap();
        assert_eq!(owner.push(3), Err(3));
        assert_eq!(owner.pop(), Some(2));
        owner.push(3).unwrap();
    }

    #[test]
    fn deque_drops_leftover_items() {
        // Drop coverage for items still queued.
        let (mut owner, stealer) = steal_deque::<Arc<u32>>(8);
        let item = Arc::new(7u32);
        owner.push(Arc::clone(&item)).unwrap();
        owner.push(Arc::clone(&item)).unwrap();
        assert_eq!(Arc::strong_count(&item), 3);
        drop(owner);
        drop(stealer);
        assert_eq!(Arc::strong_count(&item), 1, "deque dropped its copies");
    }

    #[test]
    fn concurrent_steals_conserve_items() {
        let (mut owner, stealer) = steal_deque::<u64>(1024);
        let total = 10_000u64;
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let s = stealer.clone();
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    let mut empties = 0;
                    while empties < 10_000 {
                        match s.steal() {
                            Steal::Success(v) => {
                                sum += v;
                                empties = 0;
                            }
                            Steal::Retry => empties = 0,
                            Steal::Empty => empties += 1,
                        }
                        if empties > 0 {
                            std::thread::yield_now();
                        }
                    }
                    sum
                })
            })
            .collect();
        let mut own_sum = 0u64;
        let mut next = 1u64;
        while next <= total {
            if owner.push(next).is_ok() {
                next += 1;
            }
            if next.is_multiple_of(7) {
                if let Some(v) = owner.pop() {
                    own_sum += v;
                }
            }
        }
        while let Some(v) = owner.pop() {
            own_sum += v;
        }
        let stolen: u64 = thieves.into_iter().map(|t| t.join().unwrap()).sum();
        // Remaining items (if any) are still in the deque; drain them.
        while let Some(v) = owner.pop() {
            own_sum += v;
        }
        assert_eq!(
            own_sum + stolen,
            total * (total + 1) / 2,
            "every pushed item popped or stolen exactly once"
        );
    }

    #[test]
    fn gate_notify_after_ticket_returns_immediately() {
        let gate = WakeupGate::new();
        let ticket = gate.ticket();
        gate.notify();
        let start = std::time::Instant::now();
        assert!(gate.park(ticket, Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn gate_park_times_out_without_notify() {
        let gate = WakeupGate::new();
        let ticket = gate.ticket();
        assert!(!gate.park(ticket, Duration::from_millis(10)));
    }

    #[test]
    fn gate_wakes_parked_thread() {
        let gate = Arc::new(WakeupGate::new());
        let g = Arc::clone(&gate);
        let h = std::thread::spawn(move || {
            let ticket = g.ticket();
            g.park(ticket, Duration::from_secs(10))
        });
        while gate.parked() == 0 {
            std::thread::yield_now();
        }
        gate.notify();
        assert!(h.join().unwrap(), "woken by notify, not timeout");
    }

    #[test]
    fn poller_escalates_spin_yield_park() {
        let gate = WakeupGate::new();
        let mut p = AdaptivePoller::new(2, 2, 1_000_000);
        let steps: Vec<_> = (0..5).map(|_| p.idle(&gate, gate.ticket())).collect();
        assert_eq!(
            steps,
            vec![
                IdleStep::Spun,
                IdleStep::Spun,
                IdleStep::Yielded,
                IdleStep::Yielded,
                IdleStep::Parked
            ]
        );
        p.reset();
        assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Spun);
    }

    #[test]
    fn lost_race_skips_spin_but_never_parks() {
        let gate = WakeupGate::new();
        let mut p = AdaptivePoller::new(4, 2, 1_000_000);
        // From a fresh reset a lost race jumps straight past the spin
        // budget into the yield stage.
        p.lost_race();
        assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Yielded);
        // Repeated lost races hold the poller at the yield stage:
        // contention alone must never escalate to a park.
        for _ in 0..10 {
            p.lost_race();
            assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Yielded);
        }
        // From deep in the park stage a lost race drops *back* to
        // yield — work clearly exists, parking would add latency.
        p.reset();
        for _ in 0..20 {
            p.idle(&gate, gate.ticket());
        }
        p.lost_race();
        assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Yielded);
        // Real progress still resets to the spin stage.
        p.reset();
        assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Spun);
    }

    #[test]
    fn lost_race_with_zero_yield_budget_stays_short_of_park() {
        let gate = WakeupGate::new();
        let mut p = AdaptivePoller::new(2, 0, 1_000_000);
        // No yield stage to land in: hold one round short of the park
        // threshold so a contended worker still never parks.
        p.lost_race();
        assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Spun);
        p.lost_race();
        assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Spun);
    }

    #[test]
    fn pinning_is_safe_to_call() {
        // Accepts or cleanly refuses; must never crash, even for cores
        // beyond the machine (or on non-Linux builds, where it is a
        // no-op returning false).
        let _ = pin_to_core(0);
        assert!(!pin_to_core(usize::MAX));
        assert!(available_cores() >= 1);
    }
}
