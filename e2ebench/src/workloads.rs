//! The three workloads, each one repetition at a time over a fresh,
//! unmodified `LiveWireCap` on a `shmring` loopback backend.
//!
//! A repetition builds the backend and the engine, times set-up up to
//! the first delivered packet of a warm-up burst, runs the measured
//! window, reads the host's per-thread accounting while the engine's
//! threads are still alive, tears everything down, and returns the
//! ledger that [`check`] verifies.

use crate::frames::{digest, Frames};
use crate::host::{self, ThreadStat};
use crate::stats::quantile;
use capdisk::{read_pcapng, DiskSink, DiskSinkConfig, RotationPolicy};
use flowstat::{FlowSink, FlowSinkConfig, PackedFlowKey};
use netproto::FlowKey;
use shmring::{ShmQueue, ShmRingNic};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::{clock::mono_ns, EngineSnapshot, HistogramSnapshot};
use wirecap::buddy::BuddyGroups;
use wirecap::{BackendQueue, BuddyGroup, CaptureBackend, LiveWireCap, WireCapConfig};

/// Cells per chunk (the paper's M) in every workload.
pub const M: usize = 64;
/// Descriptors per closed-loop ring: at most this many packets are in
/// flight, so no frame is ever refused.
const CLOSED_RING: usize = 4096;
/// Chunks per queue on `saturate`; R·M exceeds the ring, so the pool
/// never runs dry either.
const SATURATE_R: usize = 128;
/// Receive queues and pool workers of the open loop.
pub const TRACE_QUEUES: usize = 2;
/// Descriptors per open-loop ring: deep enough to ride out host stalls
/// of tens of milliseconds at the replay rate without refusing a frame.
const TRACE_RING: usize = 32_768;
/// Chunks per queue in the open loop.
const TRACE_R: usize = 256;
/// Replay speed-up of the border trace: 1×, about 0.155 Mpps on
/// average. Faster replays put the median chunk on the edge of the
/// pool's burst backlog, and it stopped repeating: at 3× per-repetition
/// medians ranged from 0.26 to 15 ms, at 2× run medians from 0.16 to
/// 0.28 ms.
pub const TRACE_SPEEDUP: f64 = 1.0;
/// The blocking stage every `trace_replay` chunk pays in the handler,
/// standing in for I/O.
const BLOCKING_STAGE: Duration = Duration::from_micros(50);
/// Flow-table slots per pool worker: far more than the trace's flows,
/// so no flow is evicted and per-flow totals are exact.
const FLOW_TABLE: usize = 1 << 15;
/// Chunks per queue on `capture_to_disk`: half again the chunks in
/// flight, so every repetition touches the whole pool and its resident
/// memory does not depend on how the sink's threads were scheduled (with
/// 128 chunks it read 18 or 26 MiB depending on the host's state).
const DISK_R: usize = 48;
/// Chunks the capture-to-disk handoff ring holds.
const DISK_HANDOFF: usize = 64;
/// The disk generator keeps fewer packets than this in flight, well
/// under the handoff's capacity, so the disk leg never sheds a chunk.
const DISK_IN_FLIGHT: u64 = (DISK_HANDOFF * M / 2) as u64;
/// The generators sleep at most this long between batches.
const PACE_TICK_NS: u64 = 50_000;
/// Frames produced per generator iteration at most.
const GEN_BATCH: usize = 256;
/// Span sampling in traced repetitions: one chunk in this many.
const SPAN_SAMPLE_N: u32 = 8;
/// A repetition that has not finished after this long is a failure.
const STALL: Duration = Duration::from_secs(60);
/// Traced repetitions time `LiveWireCap::snapshot` this often.
const SNAPSHOT_EVERY_NS: u64 = 20_000_000;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Closed loop, 1 queue, 64 B frames, per-queue consumer on the
    /// generator thread.
    Saturate,
    /// Open loop, the border trace over 2 RSS queues into a 2-worker
    /// pool with flow tracking and a blocking stage.
    TraceReplay,
    /// Closed loop, 1 queue, 1 024 B frames into rotating pcapng files.
    CaptureToDisk,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::Saturate,
        Workload::TraceReplay,
        Workload::CaptureToDisk,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Saturate => "saturate",
            Workload::TraceReplay => "trace_replay",
            Workload::CaptureToDisk => "capture_to_disk",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. [`Scale::full`] is what the benchmark runs; the tests
/// use [`Scale::tiny`].
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Packets per closed-loop repetition on `saturate`.
    pub saturate_packets: u64,
    /// Packets per closed-loop repetition on `capture_to_disk`.
    pub disk_packets: u64,
    /// Packets in the border trace one `trace_replay` repetition replays.
    pub trace_packets: usize,
    /// Distinct pre-rendered frames the closed loops cycle through.
    pub frame_pool: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub fn full() -> Self {
        Scale {
            saturate_packets: 250_000,
            disk_packets: 50_000,
            trace_packets: 100_000,
            frame_pool: 4_096,
        }
    }

    /// A scale at which every workload repetition takes milliseconds.
    pub fn tiny() -> Self {
        Scale {
            saturate_packets: 20_000,
            disk_packets: 5_000,
            trace_packets: 6_000,
            frame_pool: 256,
        }
    }
}

/// A workload's pre-rendered inputs.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The frames.
    pub frames: Frames,
    /// Packets per closed-loop repetition (the open loop replays every
    /// frame once).
    pub packets: u64,
    /// Seconds spent generating and rendering the frames.
    pub gen_setup_s: f64,
}

/// Generates a workload's inputs from `seed`.
pub fn inputs(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    let t = Instant::now();
    let (frames, packets) = match workload {
        Workload::Saturate => (
            crate::frames::fixed_size(seed, scale.frame_pool, 64),
            scale.saturate_packets,
        ),
        Workload::CaptureToDisk => (
            crate::frames::fixed_size(seed, scale.frame_pool, 1024),
            scale.disk_packets,
        ),
        Workload::TraceReplay => {
            let f =
                crate::frames::border_trace(seed, scale.trace_packets, TRACE_QUEUES, TRACE_SPEEDUP);
            let n = f.len() as u64;
            (f, n)
        }
    };
    Inputs {
        workload,
        frames,
        packets,
        gen_setup_s: t.elapsed().as_secs_f64(),
    }
}

/// The packet ledger of one repetition: what was offered, what every
/// layer says it did with it, and what the application saw.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Frames handed to `ShmQueue::produce`.
    pub offered: u64,
    /// Frames `produce` accepted.
    pub accepted: u64,
    /// Frames the rings say they received.
    pub ring_received: u64,
    /// Frames the rings say they refused.
    pub ring_refused: u64,
    /// Packets the application received.
    pub delivered: u64,
    /// Packets dropped at disk (disk workload only).
    pub disk_dropped: u64,
    /// The engine's own end-of-run snapshot.
    pub snapshot: EngineSnapshot,
    /// `saturate`: (digest sum of accepted frames, digest sum of
    /// delivered payloads).
    pub payload: Option<(u64, u64)>,
    /// `trace_replay`: the flow tables' view.
    pub flows: Option<FlowLedger>,
    /// `capture_to_disk`: the files' view.
    pub disk: Option<DiskLedger>,
}

/// What the pool workers' flow tables recorded.
#[derive(Debug, Clone)]
pub struct FlowLedger {
    /// Packets the flow tables tracked.
    pub tracked: u64,
    /// Flows the tables evicted.
    pub evicted_flows: u64,
    /// Per flow: (packets offered, packets the tables counted).
    pub per_flow: Vec<(u64, u64)>,
}

/// What the disk sink reported and the files contain.
#[derive(Debug, Clone)]
pub struct DiskLedger {
    /// `DiskReport::is_conserved`.
    pub conserved: bool,
    /// The sink's I/O error, if any.
    pub io_error: Option<String>,
    /// Packets the sink says it wrote.
    pub written: u64,
    /// Packets read back from the files with `capdisk::read_pcapng`.
    pub parsed: u64,
    /// Digest sum of the frames offered.
    pub offered_digest: u64,
    /// Digest sum of the packets read back.
    pub parsed_digest: u64,
    /// A file that failed to parse.
    pub parse_error: Option<String>,
}

impl Ledger {
    /// Packets lost anywhere: refused at the ring or dropped at capture,
    /// delivery or disk.
    pub fn lost(&self) -> u64 {
        let q = &self.snapshot.queues;
        self.ring_refused
            + q.iter().map(|q| q.capture_drop_packets).sum::<u64>()
            + q.iter().map(|q| q.delivery_drop_packets).sum::<u64>()
            + self.disk_dropped
    }
}

/// Verifies a repetition's ledger: the engine's conservation laws, the
/// ring's and the application's counts, and the workload's own payload,
/// flow or file check.
pub fn check(l: &Ledger) -> Result<(), String> {
    let snap = l.snapshot.clone();
    let accepted = l.accepted;
    std::panic::catch_unwind(move || bench::scaling::assert_conserved(&snap, accepted)).map_err(
        |e| {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            format!("conservation: {msg}")
        },
    )?;
    if l.offered != l.accepted + l.ring_refused || l.accepted != l.ring_received {
        return Err(format!(
            "ring ledger: offered {} accepted {} received {} refused {}",
            l.offered, l.accepted, l.ring_received, l.ring_refused
        ));
    }
    let engine_delivered: u64 = l.snapshot.queues.iter().map(|q| q.delivered_packets).sum();
    if l.delivered != engine_delivered {
        return Err(format!(
            "application saw {} packets, engine delivered {engine_delivered}",
            l.delivered
        ));
    }
    if let Some((offered, delivered)) = l.payload {
        if offered != delivered {
            return Err(format!(
                "payload checksum {delivered:#x} differs from offered {offered:#x}"
            ));
        }
    }
    if let Some(f) = &l.flows {
        if f.tracked != l.delivered {
            return Err(format!(
                "flow tables tracked {} packets of {} delivered",
                f.tracked, l.delivered
            ));
        }
        if l.lost() == 0 && f.evicted_flows == 0 {
            if let Some(i) = f.per_flow.iter().position(|(want, got)| want != got) {
                return Err(format!(
                    "flow {i}: tables counted {} packets, trace has {}",
                    f.per_flow[i].1, f.per_flow[i].0
                ));
            }
        }
    }
    if let Some(d) = &l.disk {
        if let Some(e) = d.io_error.as_ref().or(d.parse_error.as_ref()) {
            return Err(format!("disk: {e}"));
        }
        if !d.conserved {
            return Err("disk report is not conserved".into());
        }
        if d.parsed != d.written {
            return Err(format!(
                "files hold {} packets, sink wrote {}",
                d.parsed, d.written
            ));
        }
        if l.disk_dropped == 0 && d.parsed_digest != d.offered_digest {
            return Err("file payload checksum differs from offered frames".into());
        }
    }
    Ok(())
}

/// One repetition's measurements.
#[derive(Debug)]
pub struct Rep {
    /// The packet ledger, verified by [`check`].
    pub ledger: Ledger,
    /// Builder call to first delivered warm-up packet, s.
    pub setup_s: f64,
    /// Resident memory the repetition added: at the end of the window
    /// against just before the builder call, bytes. The engine's pools
    /// and rings are zeroed lazily, so they become resident under
    /// traffic, not at set-up.
    pub mem_bytes: u64,
    /// Measured window, s.
    pub wall_s: f64,
    /// Process CPU time over the window, ns.
    pub cpu_ns: u64,
    /// Packets delivered in the window.
    pub window_packets: u64,
    /// Bytes the sink finished with in the window: pcapng bytes
    /// committed, or captured frame bytes the handler read.
    pub sink_bytes: u64,
    /// Per delivered chunk: scheduled send time of its last packet to
    /// handler entry, ns.
    pub lat_ns: Vec<u64>,
    /// Per-layer readings (see the metric table in `report`).
    pub layer: BTreeMap<&'static str, f64>,
}

/// Common window bookkeeping: clocks and host readings at the start.
struct Window {
    t0: Instant,
    cpu0: u64,
    steal0: (u64, u64),
    roles0: BTreeMap<String, ThreadStat>,
}

impl Window {
    fn open() -> Self {
        Window {
            roles0: host::threads_by_role(),
            steal0: host::cpu_jiffies(),
            cpu0: host::process_cpu_ns(),
            t0: Instant::now(),
        }
    }

    /// Closes the window, recording the host-noise readings into `layer`.
    /// Returns the window's wall time and process CPU time, and the
    /// resident memory at its end.
    fn close(&self, layer: &mut BTreeMap<&'static str, f64>) -> (f64, u64, u64) {
        let cpu = host::process_cpu_ns() - self.cpu0;
        let wall = self.t0.elapsed().as_secs_f64();
        let rss = host::rss_bytes();
        let roles = host::role_delta(&self.roles0, &host::threads_by_role());
        layer.insert(
            "host.steal_pct",
            host::steal_pct(self.steal0, host::cpu_jiffies()),
        );
        let wall_ns = wall * 1e9;
        for (role, wait_key, cpu_key) in [
            (
                "wirecap-capture",
                Some("runq_wait_pct.capture"),
                "capture.cpu_pct",
            ),
            (
                "wirecap-pool",
                Some("runq_wait_pct.pool"),
                "pool.worker_cpu_pct",
            ),
            (
                "capdisk-drain",
                Some("runq_wait_pct.drain"),
                "capdisk.drain_cpu_pct",
            ),
            (
                "capdisk-write",
                Some("runq_wait_pct.write"),
                "capdisk.write_cpu_pct",
            ),
            ("wirecap-sampler", None, "telemetry.sampler_cpu_pct"),
        ] {
            let Some(st) = roles.get(role) else { continue };
            let thread_ns = wall_ns * st.threads.max(1) as f64;
            if let Some(k) = wait_key {
                layer.insert(k, st.wait_ns as f64 * 100.0 / thread_ns);
            }
            layer.insert(cpu_key, st.run_ns as f64 * 100.0 / thread_ns);
            if role == "wirecap-capture" {
                layer.insert("capture.voluntary_switches", st.voluntary as f64);
            }
        }
        (wall, cpu, rss)
    }
}

/// Largest gap between two generator-loop iterations, and the in-situ
/// traced timings the generator takes.
#[derive(Default)]
struct GenProbe {
    last_ns: u64,
    gap_max_ns: u64,
    produce_ns: u64,
    produce_pkts: u64,
    next_snapshot_ns: u64,
    snapshot_ns: Vec<u64>,
    ring_used_max: u64,
}

impl GenProbe {
    fn tick(&mut self, now: u64) {
        if self.last_ns != 0 {
            self.gap_max_ns = self.gap_max_ns.max(now - self.last_ns);
        }
        self.last_ns = now;
    }

    /// Traced only: times one `LiveWireCap::snapshot` every
    /// [`SNAPSHOT_EVERY_NS`].
    fn maybe_snapshot(&mut self, engine: &LiveWireCap, now: u64) {
        if now >= self.next_snapshot_ns {
            let t = mono_ns();
            std::hint::black_box(engine.snapshot());
            self.snapshot_ns.push(mono_ns() - t);
            self.next_snapshot_ns = now + SNAPSHOT_EVERY_NS;
        }
    }

    fn record(&self, layer: &mut BTreeMap<&'static str, f64>, traced: bool) {
        layer.insert("host.driver_gap_max_us", self.gap_max_ns as f64 / 1e3);
        if traced {
            if self.produce_pkts > 0 {
                layer.insert(
                    "gen.produce_ns_per_pkt",
                    self.produce_ns as f64 / self.produce_pkts as f64,
                );
            }
            let mut s = self.snapshot_ns.clone();
            if !s.is_empty() {
                s.sort_unstable();
                layer.insert("telemetry.snapshot_us", quantile(&s, 0.5) / 1e3);
            }
        }
    }
}

fn config(m: usize, r: usize, traced: bool) -> WireCapConfig {
    WireCapConfig::builder()
        .cells(m)
        .chunks(r)
        .span_sample_n(if traced { SPAN_SAMPLE_N } else { 0 })
        .build()
        .expect("benchmark engine configuration is valid")
}

fn start(nic: &Arc<ShmRingNic>, cfg: WireCapConfig, queues: usize) -> LiveWireCap {
    LiveWireCap::builder()
        .backend(Arc::clone(nic) as Arc<dyn CaptureBackend>)
        .config(cfg)
        .groups(BuddyGroups::single(queues))
        .start()
}

/// Maps `queues` rings of `depth` descriptors and touches every
/// descriptor and buffer slot once, as a driver does at initialisation:
/// one lap of frames produced and polled back before the engine starts.
/// Without it the ring's pages fault in under traffic, inside the
/// measured window.
fn backend(queues: usize, depth: usize) -> Result<Arc<ShmRingNic>, String> {
    let nic = ShmRingNic::new(queues, depth);
    let frame = warmup_frame();
    for q in 0..queues {
        let ring = nic.ring(q);
        for _ in 0..depth {
            if ring.produce(0, 64, &frame) != Ok(true) {
                return Err("pre-touch frame refused".into());
            }
        }
        let queue = nic.queue(q);
        let mut polled = 0;
        while polled < depth {
            let n = queue
                .poll_batch(depth, &mut |_| {})
                .map_err(|e| format!("pre-touch poll: {e}"))?;
            queue
                .recycle(n)
                .map_err(|e| format!("pre-touch recycle: {e}"))?;
            polled += n;
        }
    }
    Ok(nic)
}

/// Frames the rings received from the workload (the pre-touch lap of
/// [`backend`] excluded) and refused.
fn ring_totals(nic: &ShmRingNic, queues: usize) -> (u64, u64) {
    (0..queues)
        .map(|q| nic.queue(q).accounting())
        .fold((0, 0), |(r, d), a| {
            (r + a.received - a.ring_capacity, d + a.dropped)
        })
}

fn merged(
    snap: &EngineSnapshot,
    f: impl Fn(&telemetry::QueueTelemetry) -> &HistogramSnapshot,
) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for q in &snap.queues {
        h.merge(f(q));
    }
    h
}

/// The capture-side readings every workload reports from its snapshot.
fn capture_layers(snap: &EngineSnapshot, layer: &mut BTreeMap<&'static str, f64>) {
    let q = &snap.queues;
    let sealed: u64 = q.iter().map(|q| q.sealed_chunks).sum();
    let partial: u64 = q.iter().map(|q| q.partial_chunks).sum();
    layer.insert(
        "capture.partial_chunk_pct",
        partial as f64 * 100.0 / sealed.max(1) as f64,
    );
    layer.insert(
        "capture.drop_pkts",
        q.iter().map(|q| q.capture_drop_packets).sum::<u64>() as f64,
    );
    layer.insert(
        "capture.publish_batch_mean",
        merged(snap, |q| &q.batch_size).mean(),
    );
    layer.insert(
        "capture.chunk_fill_mean",
        merged(snap, |q| &q.chunk_fill).mean(),
    );
    layer.insert(
        "handoff.queue_watermark_chunks",
        q.iter()
            .map(|q| q.capture_queue_watermark)
            .max()
            .unwrap_or(0) as f64,
    );
    layer.insert(
        "shmring.nic_drop_pkts",
        q.iter().map(|q| q.nic_drop_packets).sum::<u64>() as f64,
    );
    for (p50, p99, h) in [
        (
            "span.backend_us_p50",
            Some("span.backend_us_p99"),
            merged(snap, |q| &q.stage_backend_ns),
        ),
        (
            "span.queue_wait_us_p50",
            Some("span.queue_wait_us_p99"),
            merged(snap, |q| &q.stage_queue_wait_ns),
        ),
        (
            "span.claim_us_p50",
            Some("span.claim_us_p99"),
            merged(snap, |q| &q.stage_claim_ns),
        ),
        (
            "span.deliver_us_p50",
            Some("span.deliver_us_p99"),
            merged(snap, |q| &q.stage_deliver_ns),
        ),
        ("span.disk_us_p50", None, merged(snap, |q| &q.stage_disk_ns)),
    ] {
        if !h.is_empty() {
            layer.insert(p50, h.quantile(0.5) as f64 / 1e3);
            if let Some(p99) = p99 {
                layer.insert(p99, h.quantile(0.99) as f64 / 1e3);
            }
        }
    }
}

/// Produces frames `[from, to)` of the closed-loop pool (cycling) with
/// one clock read for the batch, returning the digest sum.
fn produce_closed(
    ring: &ShmQueue,
    frames: &Frames,
    from: u64,
    to: u64,
    probe: &mut GenProbe,
    traced: bool,
) -> Result<u64, String> {
    let ts = mono_ns();
    let mut sum = 0u64;
    for n in from..to {
        let i = (n % frames.len() as u64) as usize;
        match ring.produce(ts, frames.wire_len[i], frames.data(i)) {
            Ok(true) => sum = sum.wrapping_add(frames.digest[i]),
            Ok(false) => return Err("closed-loop frame refused at the ring".into()),
            Err(e) => return Err(format!("produce: {e}")),
        }
    }
    if traced {
        probe.produce_ns += mono_ns() - ts;
        probe.produce_pkts += to - from;
    }
    Ok(sum)
}

fn stalled(t: Instant, what: &str) -> Result<(), String> {
    if t.elapsed() > STALL {
        Err(format!("stalled: {what}"))
    } else {
        Ok(())
    }
}

/// Runs one repetition of `inputs.workload`. `scratch` is where the disk
/// workload writes its files; the repetition deletes them.
pub fn run_rep(inputs: &Inputs, traced: bool, scratch: &std::path::Path) -> Result<Rep, String> {
    match inputs.workload {
        Workload::Saturate => saturate(inputs, traced),
        Workload::TraceReplay => trace_replay(inputs, traced),
        Workload::CaptureToDisk => {
            let dir = scratch.join(format!("rep-{}", mono_ns()));
            let out = capture_to_disk(inputs, traced, &dir);
            std::fs::remove_dir_all(&dir).ok();
            out
        }
    }
}

/// Per-consumer in-situ timings (traced `saturate`).
#[derive(Default)]
struct ConsumerProbe {
    polls: u64,
    empty: u64,
    hit_ns: u64,
    recycle_ns: u64,
    app_ns: u64,
    chunks: u64,
    pkts: u64,
}

fn saturate(inputs: &Inputs, traced: bool) -> Result<Rep, String> {
    let frames = &inputs.frames;
    let total = inputs.packets + M as u64;
    let mut layer = BTreeMap::new();
    let mut probe = GenProbe::default();
    let mut cp = ConsumerProbe::default();
    let mut lat = Vec::with_capacity((total / M as u64) as usize + 16);
    let (mut offered_sum, mut delivered_sum) = (0u64, 0u64);
    let (mut produced, mut delivered) = (0u64, 0u64);

    let rss_before = host::rss_bytes();
    let t_setup = Instant::now();
    let nic = backend(1, CLOSED_RING)?;
    let ring = nic.ring(0);
    let engine = start(&nic, config(M, SATURATE_R, traced), 1);
    let mut consumer = engine.consumer(0);
    offered_sum = offered_sum.wrapping_add(produce_closed(
        &ring, frames, 0, M as u64, &mut probe, false,
    )?);
    produced += M as u64;
    let mut setup_s = None;
    let mut window: Option<Window> = None;
    let mut window_from = 0u64;
    loop {
        let now = mono_ns();
        if window.is_some() {
            probe.tick(now);
            if traced {
                probe.maybe_snapshot(&engine, now);
            }
            let room = (CLOSED_RING as u64).saturating_sub(produced - delivered);
            let n = room.min(GEN_BATCH as u64).min(total - produced);
            if n > 0 {
                offered_sum = offered_sum.wrapping_add(produce_closed(
                    &ring,
                    frames,
                    produced,
                    produced + n,
                    &mut probe,
                    traced,
                )?);
                produced += n;
            }
        }
        loop {
            let t_poll = if traced { mono_ns() } else { 0 };
            cp.polls += 1;
            let Some(chunk) = consumer.try_chunk() else {
                cp.empty += 1;
                break;
            };
            let entry = mono_ns();
            if traced {
                cp.hit_ns += entry - t_poll;
            }
            let view = consumer.view(&chunk);
            lat.push(entry.saturating_sub(view.packet(view.len() - 1).ts_ns));
            for p in view.iter() {
                delivered_sum = delivered_sum.wrapping_add(digest(p.data));
            }
            let n = chunk.len() as u64;
            delivered += n;
            if traced {
                let t_app = mono_ns();
                cp.app_ns += t_app - entry;
                consumer.recycle(chunk);
                cp.recycle_ns += mono_ns() - t_app;
                cp.chunks += 1;
                cp.pkts += n;
            } else {
                consumer.recycle(chunk);
            }
        }
        if setup_s.is_none() && delivered > 0 {
            setup_s = Some(t_setup.elapsed().as_secs_f64());
        }
        if window.is_none() && delivered == M as u64 {
            // The warm-up burst is home: start the measured window.
            lat.clear();
            cp = ConsumerProbe::default();
            window_from = delivered;
            window = Some(Window::open());
        }
        if delivered == total {
            break;
        }
        stalled(t_setup, "saturate delivery")?;
    }
    let window = window.expect("window opened after warm-up");
    let (wall_s, cpu_ns, rss_end) = window.close(&mut layer);
    probe.record(&mut layer, traced);
    if traced && cp.chunks > 0 {
        layer.insert(
            "consumer.try_chunk_hit_ns",
            cp.hit_ns as f64 / cp.chunks as f64,
        );
        layer.insert(
            "consumer.recycle_ns_per_chunk",
            cp.recycle_ns as f64 / cp.chunks as f64,
        );
        layer.insert("consumer.app_ns_per_pkt", cp.app_ns as f64 / cp.pkts as f64);
    }
    layer.insert(
        "consumer.empty_poll_pct",
        cp.empty as f64 * 100.0 / cp.polls.max(1) as f64,
    );
    let window_packets = delivered - window_from;
    nic.stop().map_err(|e| e.to_string())?;
    while let Some(chunk) = consumer.next_chunk() {
        delivered += chunk.len() as u64;
        consumer.recycle(chunk);
    }
    drop(consumer);
    let snapshot = engine.snapshot();
    engine.shutdown();
    capture_layers(&snapshot, &mut layer);
    let (ring_received, ring_refused) = ring_totals(&nic, 1);
    Ok(Rep {
        ledger: Ledger {
            offered: produced,
            accepted: produced,
            ring_received,
            ring_refused,
            delivered,
            disk_dropped: 0,
            snapshot,
            payload: Some((offered_sum, delivered_sum)),
            flows: None,
            disk: None,
        },
        setup_s: setup_s.expect("set-up ends before the window"),
        mem_bytes: rss_end.saturating_sub(rss_before),
        wall_s,
        cpu_ns,
        window_packets,
        sink_bytes: window_packets * frames.data(0).len() as u64,
        lat_ns: lat,
        layer,
    })
}

/// The warm-up flow of `trace_replay`: documentation addresses
/// (RFC 5737) that the border trace never draws.
fn warmup_frame() -> Vec<u8> {
    let flow = FlowKey::udp(
        Ipv4Addr::new(192, 0, 2, 1),
        9,
        Ipv4Addr::new(198, 51, 100, 1),
        9,
    );
    netproto::PacketBuilder::new()
        .build(&flow, 60)
        .expect("warm-up frame is renderable")
}

/// State the `trace_replay` pool handler shares with the generator, one
/// slot per worker so workers never contend.
struct PoolState {
    traced: bool,
    delivered: AtomicU64,
    sinks: Vec<Mutex<FlowSink>>,
    lat: Vec<Mutex<Vec<u64>>>,
    handler_ns: AtomicU64,
    record_ns: AtomicU64,
    blocking_ns: AtomicU64,
    chunks: AtomicU64,
}

impl PoolState {
    /// The handler: latency stamp, flow tracking, then the blocking stage.
    fn handle(&self, d: wirecap::steal::PoolDelivery<'_>) {
        let entry = mono_ns();
        let view = *d.view();
        let n = view.len();
        if n == 0 {
            return;
        }
        let w = d.worker();
        let last_ts = view.packet(n - 1).ts_ns;
        self.lat[w]
            .lock()
            .expect("latency buffer lock poisoned")
            .push(entry.saturating_sub(last_ts));
        let t_rec = if self.traced { mono_ns() } else { 0 };
        self.sinks[w]
            .lock()
            .expect("flow sink lock poisoned")
            .record_frames(view.iter().map(|p| p.data));
        let t_blk = if self.traced { mono_ns() } else { 0 };
        std::thread::sleep(BLOCKING_STAGE);
        if self.traced {
            let end = mono_ns();
            self.handler_ns.fetch_add(t_blk - entry, Ordering::Relaxed);
            self.record_ns.fetch_add(t_blk - t_rec, Ordering::Relaxed);
            self.blocking_ns.fetch_add(end - t_blk, Ordering::Relaxed);
            self.chunks.fetch_add(1, Ordering::Relaxed);
        }
        // Release pairs with the generator's acquire: once it sees the
        // count, this chunk's latency sample and flow records are in.
        self.delivered.fetch_add(n as u64, Ordering::Release);
    }
}

/// Waits until `done()` reaches `want`, giving up after a second
/// without progress (the ledger check then reports the shortfall).
fn wait_for(want: u64, done: impl Fn() -> u64, t: Instant) -> Result<(), String> {
    let mut last = (done(), Instant::now());
    while last.0 < want {
        std::thread::sleep(Duration::from_micros(200));
        let now = done();
        if now != last.0 {
            last = (now, Instant::now());
        } else if last.1.elapsed() > Duration::from_secs(1) {
            break;
        }
        stalled(t, "waiting for delivery")?;
    }
    Ok(())
}

fn trace_replay(inputs: &Inputs, traced: bool) -> Result<Rep, String> {
    let frames = &inputs.frames;
    let warm = warmup_frame();
    let warm_total = (TRACE_QUEUES * M) as u64;
    let mut layer = BTreeMap::new();
    let mut probe = GenProbe::default();

    let rss_before = host::rss_bytes();
    let t_setup = Instant::now();
    let nic = backend(TRACE_QUEUES, TRACE_RING)?;
    let rings: Vec<Arc<ShmQueue>> = (0..TRACE_QUEUES).map(|q| nic.ring(q)).collect();
    let state = Arc::new(PoolState {
        traced,
        delivered: AtomicU64::new(0),
        sinks: (0..TRACE_QUEUES)
            .map(|_| {
                Mutex::new(FlowSink::new(FlowSinkConfig {
                    table_capacity: FLOW_TABLE,
                    ..FlowSinkConfig::default()
                }))
            })
            .collect(),
        lat: (0..TRACE_QUEUES).map(|_| Mutex::new(Vec::new())).collect(),
        handler_ns: AtomicU64::new(0),
        record_ns: AtomicU64::new(0),
        blocking_ns: AtomicU64::new(0),
        chunks: AtomicU64::new(0),
    });
    // Five threads share two cores here, so idle threads park after a
    // short spin instead of yielding in a loop; the bounded park keeps
    // the capture threads' polling delay under 50 µs.
    let mut cfg = config(M, TRACE_R, traced);
    cfg.spin_iters = 16;
    cfg.yield_iters = 0;
    cfg.park_timeout_ns = 50_000;
    let engine = start(&nic, cfg, TRACE_QUEUES);
    let pool = {
        let st = Arc::clone(&state);
        engine.consumer_pool(&BuddyGroup::all(TRACE_QUEUES), TRACE_QUEUES, move |d| {
            st.handle(d)
        })
    };
    // Warm-up: one full chunk per queue, produced straight into each ring.
    let ts = mono_ns();
    for r in &rings {
        for _ in 0..M {
            if r.produce(ts, 64, &warm) != Ok(true) {
                return Err("warm-up frame refused".into());
            }
        }
    }
    while state.delivered.load(Ordering::Acquire) == 0 {
        stalled(t_setup, "warm-up delivery")?;
        std::hint::spin_loop();
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    wait_for(
        warm_total,
        || state.delivered.load(Ordering::Acquire),
        t_setup,
    )?;
    for l in &state.lat {
        l.lock().expect("latency buffer lock poisoned").clear();
    }
    let window = Window::open();
    let (mut accepted, mut accepted_bytes, mut refused) = (0u64, 0u64, 0u64);
    let mut late: Vec<u64> = Vec::with_capacity(if traced { frames.len() } else { 0 });
    let t0 = mono_ns();
    let mut i = 0usize;
    while i < frames.len() {
        let now = mono_ns();
        probe.tick(now);
        if traced {
            probe.maybe_snapshot(&engine, now);
            let used = rings
                .iter()
                .map(|r| r.accounting().ring_used)
                .max()
                .unwrap_or(0);
            probe.ring_used_max = probe.ring_used_max.max(used);
        }
        let due = t0 + frames.due_ns[i];
        if due > now {
            // Paced in ticks: sleep until the next frame is due, at most
            // one tick, then produce everything due by then.
            std::thread::sleep(Duration::from_nanos((due - now).min(PACE_TICK_NS)));
            continue;
        }
        let t_produce = if traced { mono_ns() } else { 0 };
        let mut k = 0;
        while i < frames.len() && k < GEN_BATCH && t0 + frames.due_ns[i] <= now {
            let due_i = t0 + frames.due_ns[i];
            let q = frames.queue[i] as usize;
            match rings[q].produce(due_i, frames.wire_len[i], frames.data(i)) {
                Ok(true) => {
                    accepted += 1;
                    accepted_bytes += frames.data(i).len() as u64;
                }
                Ok(false) => refused += 1,
                Err(e) => return Err(format!("produce: {e}")),
            }
            if traced {
                late.push(now - due_i);
            }
            i += 1;
            k += 1;
        }
        if traced {
            probe.produce_ns += mono_ns() - t_produce;
            probe.produce_pkts += k as u64;
        }
    }
    wait_for(
        warm_total + accepted,
        || state.delivered.load(Ordering::Acquire),
        t_setup,
    )?;
    let (wall_s, cpu_ns, rss_end) = window.close(&mut layer);
    probe.record(&mut layer, traced);
    nic.stop().map_err(|e| e.to_string())?;
    let reports = pool.join();
    let snapshot = engine.snapshot();
    engine.shutdown();
    capture_layers(&snapshot, &mut layer);

    let delivered = state.delivered.load(Ordering::Acquire);
    let chunks: u64 = reports.iter().map(|r| r.chunks).sum();
    layer.insert(
        "pool.worker_parks",
        reports.iter().map(|r| r.parks).sum::<u64>() as f64,
    );
    layer.insert(
        "pool.stolen_chunk_pct",
        reports.iter().map(|r| r.stolen_chunks).sum::<u64>() as f64 * 100.0 / chunks.max(1) as f64,
    );
    layer.insert("gen.refused_pkts", refused as f64);
    if traced {
        let c = state.chunks.load(Ordering::Relaxed).max(1) as f64;
        layer.insert(
            "pool.handler_ns_per_chunk",
            state.handler_ns.load(Ordering::Relaxed) as f64 / c,
        );
        layer.insert(
            "pool.blocking_ns_per_chunk",
            state.blocking_ns.load(Ordering::Relaxed) as f64 / c,
        );
        layer.insert(
            "flowstat.record_ns_per_pkt",
            state.record_ns.load(Ordering::Relaxed) as f64 / delivered.max(1) as f64,
        );
        layer.insert("shmring.ring_used_max", probe.ring_used_max as f64);
        late.sort_unstable();
        if !late.is_empty() {
            layer.insert("gen.late_p99_us", quantile(&late, 0.99) / 1e3);
            layer.insert(
                "gen.late_max_us",
                *late.last().expect("non-empty") as f64 / 1e3,
            );
        }
    }

    // Flow ledger: every flow's count, summed over the workers' tables.
    let mut want: BTreeMap<PackedFlowKey, u64> = BTreeMap::new();
    for (key, n) in &frames.flows {
        *want.entry(PackedFlowKey::from_flow(key)).or_default() += n;
    }
    let warm_key = netproto::flow_of(&warm).expect("warm-up frame parses");
    *want.entry(PackedFlowKey::from_flow(&warm_key)).or_default() += warm_total;
    let mut got: BTreeMap<PackedFlowKey, u64> = BTreeMap::new();
    let (mut tracked, mut evicted, mut collisions) = (0u64, 0u64, 0u64);
    for s in &state.sinks {
        let s = s.lock().expect("flow sink lock poisoned");
        let st = s.stats();
        tracked += st.tracked_packets;
        evicted += st.evicted_flows;
        collisions += st.hash_collisions;
        for (key, packets, _) in s.table().iter() {
            *got.entry(key).or_default() += packets;
        }
    }
    layer.insert("flowstat.evicted_flows", evicted as f64);
    layer.insert("flowstat.collisions", collisions as f64);
    let keys: std::collections::BTreeSet<_> = want.keys().chain(got.keys()).copied().collect();
    let per_flow = keys
        .iter()
        .map(|k| {
            (
                want.get(k).copied().unwrap_or(0),
                got.get(k).copied().unwrap_or(0),
            )
        })
        .collect();

    let lat: Vec<u64> = state
        .lat
        .iter()
        .flat_map(|l| l.lock().expect("latency buffer lock poisoned").clone())
        .collect();
    let (ring_received, ring_refused) = ring_totals(&nic, TRACE_QUEUES);
    let window_packets = delivered - warm_total;
    Ok(Rep {
        ledger: Ledger {
            offered: warm_total + accepted + refused,
            accepted: warm_total + accepted,
            ring_received,
            ring_refused,
            delivered,
            disk_dropped: 0,
            snapshot,
            payload: None,
            flows: Some(FlowLedger {
                tracked,
                evicted_flows: evicted,
                per_flow,
            }),
            disk: None,
        },
        setup_s,
        mem_bytes: rss_end.saturating_sub(rss_before),
        wall_s,
        cpu_ns,
        window_packets,
        sink_bytes: accepted_bytes,
        lat_ns: lat,
        layer,
    })
}

fn capture_to_disk(inputs: &Inputs, traced: bool, dir: &std::path::Path) -> Result<Rep, String> {
    let frames = &inputs.frames;
    let total = inputs.packets + M as u64;
    let mut sink_cfg = DiskSinkConfig::new(dir);
    sink_cfg.prefix = "e2ebench".into();
    sink_cfg.handoff_chunks = DISK_HANDOFF;
    sink_cfg.rotation = RotationPolicy {
        max_file_bytes: 8 << 20,
        max_file_duration: None,
    };
    let mut layer = BTreeMap::new();
    let mut probe = GenProbe::default();
    let mut offered_sum = 0u64;

    let rss_before = host::rss_bytes();
    let t_setup = Instant::now();
    let nic = backend(1, CLOSED_RING)?;
    let ring = nic.ring(0);
    let engine = start(&nic, config(M, DISK_R, traced), 1);
    let sink = DiskSink::attach(&engine, &sink_cfg).map_err(|e| format!("disk sink: {e}"))?;
    let lens = engine.chunk_lens();
    let disk = lens.disk(0);
    let done = || disk.disk_written_packets.get() + disk.disk_drop_packets.get();
    offered_sum = offered_sum.wrapping_add(produce_closed(
        &ring, frames, 0, M as u64, &mut probe, false,
    )?);
    let mut produced = M as u64;
    while disk.disk_written_packets.get() == 0 {
        stalled(t_setup, "warm-up write")?;
        std::hint::spin_loop();
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    wait_for(M as u64, done, t_setup)?;
    let window = Window::open();
    let bytes0 = disk.disk_written_bytes.get();
    let done0 = done();
    let mut lat = Vec::new();
    // (packets produced through this batch, its send stamp): a batch's
    // latency ends when the sink has committed its last packet.
    let mut in_flight: std::collections::VecDeque<(u64, u64)> = Default::default();
    loop {
        let now = mono_ns();
        probe.tick(now);
        if traced {
            probe.maybe_snapshot(&engine, now);
        }
        let d = done();
        while in_flight.front().is_some_and(|&(upto, _)| upto <= d) {
            let (_, sent) = in_flight.pop_front().expect("checked non-empty");
            lat.push(now.saturating_sub(sent));
        }
        let room = DISK_IN_FLIGHT.saturating_sub(produced - d);
        let n = room.min(GEN_BATCH as u64).min(total - produced);
        if n > 0 {
            in_flight.push_back((produced + n, mono_ns()));
            offered_sum = offered_sum.wrapping_add(produce_closed(
                &ring,
                frames,
                produced,
                produced + n,
                &mut probe,
                traced,
            )?);
            produced += n;
        } else if d == total {
            break;
        } else {
            // The window is full: leave both cores to the engine and the
            // sink while they drain it.
            std::thread::sleep(Duration::from_nanos(PACE_TICK_NS));
        }
        stalled(t_setup, "capture_to_disk writes")?;
    }
    let (wall_s, cpu_ns, rss_end) = window.close(&mut layer);
    probe.record(&mut layer, traced);
    let window_packets = done() - done0;
    let sink_bytes = disk.disk_written_bytes.get() - bytes0;
    nic.stop().map_err(|e| e.to_string())?;
    let report = sink.wait();
    let snapshot = engine.snapshot();
    engine.shutdown();
    capture_layers(&snapshot, &mut layer);
    layer.insert("capdisk.drop_pkts", report.dropped_packets() as f64);

    let (mut parsed, mut parsed_digest, mut parse_error) = (0u64, 0u64, None);
    for f in report.files() {
        match std::fs::read(&f)
            .map_err(|e| e.to_string())
            .and_then(|b| read_pcapng(&b))
        {
            Ok(pf) => {
                parsed += pf.packets.len() as u64;
                for p in &pf.packets {
                    parsed_digest = parsed_digest.wrapping_add(digest(&p.data));
                }
            }
            Err(e) => parse_error = Some(format!("{}: {e}", f.display())),
        }
    }
    let (ring_received, ring_refused) = ring_totals(&nic, 1);
    Ok(Rep {
        ledger: Ledger {
            offered: produced,
            accepted: produced,
            ring_received,
            ring_refused,
            delivered: report.delivered_packets(),
            disk_dropped: report.dropped_packets(),
            snapshot,
            payload: None,
            flows: None,
            disk: Some(DiskLedger {
                conserved: report.is_conserved(),
                io_error: report.queues.iter().find_map(|q| q.io_error.clone()),
                written: report.written_packets(),
                parsed,
                offered_digest: offered_sum,
                parsed_digest,
                parse_error,
            }),
        },
        setup_s,
        mem_bytes: rss_end.saturating_sub(rss_before),
        wall_s,
        cpu_ns,
        window_packets,
        sink_bytes,
        lat_ns: lat,
        layer,
    })
}
