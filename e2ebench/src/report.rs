//! The metric tables, the run loop, and the result line.

use crate::micro;
use crate::stats::{median, quantile};
use crate::workloads::{self, check, Inputs, Rep, Scale, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("delivered_mpps", "Mpps"),
    ("written_mbps", "MB/s"),
    ("cpu_ns_per_pkt", "ns"),
    ("lat_p50_us", "us"),
    ("setup_s", "s"),
    ("mem_mib", "MiB"),
];

/// Where a per-layer metric is measured in a traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The single-thread microbenchmarks.
    Micro,
    /// The traced repetitions of the workload named on the command line.
    Own,
    /// The traced repetitions of this workload, whichever is named.
    Of(Workload),
}

const SAT: Source = Source::Of(Workload::Saturate);
const TRACE: Source = Source::Of(Workload::TraceReplay);
const DISK: Source = Source::Of(Workload::CaptureToDisk);
const MICRO: Source = Source::Micro;
const OWN: Source = Source::Own;

/// Per-layer metrics, reported by the traced run: (name, unit, source).
pub const PER_LAYER: [(&str, &str, Source); 70] = [
    ("gen.produce_ns_per_pkt", "ns", OWN),
    ("gen.late_p99_us", "us", TRACE),
    ("gen.late_max_us", "us", TRACE),
    ("gen.refused_pkts", "count", TRACE),
    ("gen.setup_s", "s", OWN),
    ("host.steal_pct", "%", OWN),
    ("host.driver_gap_max_us", "us", OWN),
    ("runq_wait_pct.capture", "%", OWN),
    ("runq_wait_pct.pool", "%", TRACE),
    ("runq_wait_pct.drain", "%", DISK),
    ("runq_wait_pct.write", "%", DISK),
    ("shmring.poll_ns_per_pkt.b1", "ns", MICRO),
    ("shmring.poll_ns_per_pkt.b16", "ns", MICRO),
    ("shmring.poll_ns_per_pkt.b64", "ns", MICRO),
    ("shmring.poll_ns_per_pkt.b256", "ns", MICRO),
    ("shmring.produce_ns_per_pkt", "ns", MICRO),
    ("shmring.ring_used_max", "count", TRACE),
    ("shmring.nic_drop_pkts", "count", TRACE),
    ("arena.write_ns_per_pkt.f64", "ns", MICRO),
    ("arena.write_ns_per_pkt.fmix", "ns", MICRO),
    ("arena.write_ns_per_pkt.f1024", "ns", MICRO),
    ("arena.seal_release_ns_per_chunk", "ns", MICRO),
    ("capture.cpu_pct", "%", OWN),
    ("capture.voluntary_switches", "count", OWN),
    ("capture.publish_batch_mean", "count", OWN),
    ("capture.chunk_fill_mean", "count", OWN),
    ("capture.partial_chunk_pct", "%", TRACE),
    ("capture.drop_pkts", "count", TRACE),
    ("spsc.push_pop_ns_per_chunk.b1", "ns", MICRO),
    ("spsc.push_pop_ns_per_chunk.b16", "ns", MICRO),
    ("spsc.push_pop_ns_per_chunk.b64", "ns", MICRO),
    ("steal.push_pop_ns_per_chunk", "ns", MICRO),
    ("steal.steal_ns", "ns", MICRO),
    ("claim.push_claim_ns_per_chunk", "ns", MICRO),
    ("handoff.queue_watermark_chunks", "count", TRACE),
    ("consumer.try_chunk_hit_ns", "ns", SAT),
    ("consumer.empty_poll_pct", "%", SAT),
    ("consumer.recycle_ns_per_chunk", "ns", SAT),
    ("consumer.app_ns_per_pkt", "ns", SAT),
    ("pool.worker_parks", "count", TRACE),
    ("pool.stolen_chunk_pct", "%", TRACE),
    ("pool.worker_cpu_pct", "%", TRACE),
    ("pool.handler_ns_per_chunk", "ns", TRACE),
    ("pool.blocking_ns_per_chunk", "ns", TRACE),
    ("span.backend_us_p50", "us", TRACE),
    ("span.backend_us_p99", "us", TRACE),
    ("span.queue_wait_us_p50", "us", TRACE),
    ("span.queue_wait_us_p99", "us", TRACE),
    ("span.claim_us_p50", "us", TRACE),
    ("span.claim_us_p99", "us", TRACE),
    ("span.deliver_us_p50", "us", TRACE),
    ("span.deliver_us_p99", "us", TRACE),
    ("span.disk_us_p50", "us", DISK),
    ("flowstat.record_ns_per_pkt", "ns", TRACE),
    ("flowstat.evicted_flows", "count", TRACE),
    ("flowstat.collisions", "count", TRACE),
    ("capdisk.encode_ns_per_pkt.f1024", "ns", MICRO),
    ("capdisk.commit_us_per_batch", "us", MICRO),
    ("capdisk.drain_cpu_pct", "%", DISK),
    ("capdisk.write_cpu_pct", "%", DISK),
    ("capdisk.drop_pkts", "count", DISK),
    ("telemetry.snapshot_us", "us", OWN),
    ("telemetry.sampler_cpu_pct", "%", OWN),
    ("e2e.lat_p99_us", "us", TRACE),
    ("e2e.lat_p999_us", "us", TRACE),
    ("e2e.lat_samples", "count", TRACE),
    ("attr.layer_sum_ns_per_pkt", "ns", OWN),
    ("attr.unattributed_pct", "%", OWN),
    ("trace.overhead_pct", "%", OWN),
    ("loss_pct", "%", OWN),
];

/// One invocation's options.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Report the per-layer metrics from a traced run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// A finished invocation: the result line's fields plus the text report.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Packets offered.
    pub attempted: u64,
    /// Packets refused or dropped.
    pub failed: u64,
    /// (name, value, unit); empty when a check failed.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable report lines.
    pub text: String,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit measured (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The repetitions of one workload, with the run's tallies.
struct Reps {
    reps: Vec<Rep>,
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

/// Runs repetitions of `inputs` until `budget` has passed (at least
/// `min` of them), checking each; `traced` says which repetitions are
/// traced (alternating with untraced ones when it returns both).
fn repeat(
    inputs: &Inputs,
    budget: Duration,
    min: usize,
    traced: impl Fn(usize) -> bool,
    scratch: &Path,
    out: &mut BTreeMap<bool, Reps>,
) {
    let t = Instant::now();
    let mut i = 0;
    while i < min || t.elapsed() < budget {
        let tr = traced(i);
        let slot = out.entry(tr).or_insert_with(|| Reps {
            reps: Vec::new(),
            attempted: 0,
            failed: 0,
            error: None,
        });
        i += 1;
        match workloads::run_rep(inputs, tr, scratch) {
            Ok(rep) => {
                slot.attempted += rep.ledger.offered;
                slot.failed += rep.ledger.lost();
                if let Err(e) = check(&rep.ledger) {
                    slot.error = Some(e);
                    return;
                }
                slot.reps.push(rep);
            }
            Err(e) => {
                slot.error = Some(e);
                return;
            }
        }
    }
}

/// The end-to-end metrics of a set of repetitions, as medians over them.
fn end_to_end(reps: &[Rep]) -> BTreeMap<&'static str, f64> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut m = BTreeMap::new();
    m.insert(
        "delivered_mpps",
        med(&|r| r.window_packets as f64 / r.wall_s / 1e6),
    );
    m.insert(
        "written_mbps",
        med(&|r| r.sink_bytes as f64 / r.wall_s / 1e6),
    );
    m.insert(
        "cpu_ns_per_pkt",
        med(&|r| r.cpu_ns as f64 / r.window_packets.max(1) as f64),
    );
    m.insert(
        "lat_p50_us",
        med(&|r| {
            let mut l = r.lat_ns.clone();
            l.sort_unstable();
            quantile(&l, 0.5) / 1e3
        }),
    );
    m.insert("setup_s", med(&|r| r.setup_s));
    m.insert("mem_mib", med(&|r| r.mem_bytes as f64 / (1 << 20) as f64));
    m
}

/// Per-layer readings of a set of repetitions: counts of lost packets
/// (`*_pkts`) are summed, everything else is the median over repetitions.
fn layers(reps: &[Rep]) -> BTreeMap<&'static str, f64> {
    let mut all: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in reps {
        for (&k, &v) in &r.layer {
            all.entry(k).or_default().push(v);
        }
    }
    let mut out: BTreeMap<&'static str, f64> = all
        .into_iter()
        .map(|(k, v)| {
            let x = if k.ends_with("_pkts") {
                v.iter().sum()
            } else {
                median(&v)
            };
            (k, x)
        })
        .collect();
    let mut lat: Vec<u64> = reps.iter().flat_map(|r| r.lat_ns.iter().copied()).collect();
    lat.sort_unstable();
    out.insert("e2e.lat_p99_us", quantile(&lat, 0.99) / 1e3);
    out.insert("e2e.lat_p999_us", quantile(&lat, 0.999) / 1e3);
    out.insert("e2e.lat_samples", lat.len() as f64);
    out
}

/// The layer-cost terms that should add up to `cpu_ns_per_pkt` on `w`,
/// per delivered packet, each named by the microbenchmark or in-situ
/// reading it comes from. Per-chunk costs are spread over the measured
/// mean chunk fill.
pub fn attribution(
    w: Workload,
    micro: &BTreeMap<&'static str, f64>,
    own: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64)> {
    let per_chunk = 1.0
        / own
            .get("capture.chunk_fill_mean")
            .copied()
            .unwrap_or(1.0)
            .max(1.0);
    let spsc = match own
        .get("capture.publish_batch_mean")
        .copied()
        .unwrap_or(1.0)
    {
        b if b < 4.0 => "spsc.push_pop_ns_per_chunk.b1",
        b if b < 32.0 => "spsc.push_pop_ns_per_chunk.b16",
        _ => "spsc.push_pop_ns_per_chunk.b64",
    };
    let terms: Vec<(&'static str, f64)> = match w {
        Workload::Saturate => vec![
            ("gen.produce_ns_per_pkt", 1.0),
            ("shmring.poll_ns_per_pkt.b256", 1.0),
            ("arena.write_ns_per_pkt.f64", 1.0),
            ("arena.seal_release_ns_per_chunk", per_chunk),
            (spsc, per_chunk),
            ("consumer.try_chunk_hit_ns", per_chunk),
            ("consumer.recycle_ns_per_chunk", per_chunk),
            ("consumer.app_ns_per_pkt", 1.0),
        ],
        // The open loop's capture threads find a few frames per poll.
        Workload::TraceReplay => vec![
            ("gen.produce_ns_per_pkt", 1.0),
            ("shmring.poll_ns_per_pkt.b16", 1.0),
            ("arena.write_ns_per_pkt.fmix", 1.0),
            ("arena.seal_release_ns_per_chunk", per_chunk),
            ("steal.push_pop_ns_per_chunk", per_chunk),
            ("pool.handler_ns_per_chunk", per_chunk),
        ],
        Workload::CaptureToDisk => vec![
            ("gen.produce_ns_per_pkt", 1.0),
            ("shmring.poll_ns_per_pkt.b256", 1.0),
            ("arena.write_ns_per_pkt.f1024", 1.0),
            ("arena.seal_release_ns_per_chunk", per_chunk),
            (spsc, per_chunk),
            ("capdisk.encode_ns_per_pkt.f1024", 1.0),
            // µs per writer batch of 8 chunks.
            ("capdisk.commit_us_per_batch", 1e3 * per_chunk / 8.0),
        ],
    };
    terms
        .into_iter()
        .map(|(k, scale)| {
            let v = micro.get(k).or_else(|| own.get(k)).copied().unwrap_or(0.0);
            (k, v * scale)
        })
        .collect()
}

/// Host-noise readings printed on every run, traced or not.
const HOST_NOISE: [&str; 8] = [
    "host.steal_pct",
    "host.driver_gap_max_us",
    "runq_wait_pct.capture",
    "runq_wait_pct.pool",
    "runq_wait_pct.drain",
    "runq_wait_pct.write",
    "capture.cpu_pct",
    "telemetry.sampler_cpu_pct",
];

/// Runs one invocation: repetitions of the workload for `opts.seconds`,
/// plus, when traced, the microbenchmarks and traced repetitions of the
/// other workloads that supply their layers' metrics. Capture files go
/// under `scratch` and are deleted.
pub fn run(o: &Opts, scratch: &Path) -> Outcome {
    let secs = Duration::from_secs_f64(o.seconds);
    let inputs = workloads::inputs(o.workload, o.seed, o.scale);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut text = String::new();
    let _ = writeln!(
        text,
        "e2ebench {} seed {} seconds {} trace {} on {cpus} CPUs: live engine over the shmring \
         loopback (in-process shared memory, no NIC or link); inputs generated in {:.3} s",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        inputs.gen_setup_s,
    );

    let mut own: BTreeMap<bool, Reps> = BTreeMap::new();
    let mut others: BTreeMap<Workload, BTreeMap<bool, Reps>> = BTreeMap::new();
    let mut micro_m = BTreeMap::new();
    if o.trace {
        micro_m = micro::run(o.seed, secs.mul_f64(0.25), scratch);
        repeat(
            &inputs,
            secs.mul_f64(0.45),
            4,
            |i| i % 2 == 1,
            scratch,
            &mut own,
        );
        for w in Workload::ALL.into_iter().filter(|&w| w != o.workload) {
            let inp = workloads::inputs(w, o.seed, o.scale);
            let mut set = BTreeMap::new();
            repeat(&inp, secs.mul_f64(0.15), 2, |_| true, scratch, &mut set);
            others.insert(w, set);
        }
    } else {
        repeat(&inputs, secs, 3, |_| false, scratch, &mut own);
    }

    let sets = own.values().chain(others.values().flat_map(|m| m.values()));
    let (mut attempted, mut failed, mut error) = (0u64, 0u64, None);
    for s in sets {
        attempted += s.attempted;
        failed += s.failed;
        if error.is_none() {
            error = s.error.clone();
        }
    }
    if let Some(e) = error {
        let _ = writeln!(text, "FAILED: {e}");
        return Outcome {
            correct: false,
            attempted: attempted.max(1),
            failed,
            metrics: Vec::new(),
            text,
        };
    }

    let untraced = &own[&false].reps;
    let e2e = end_to_end(untraced);
    let _ = writeln!(
        text,
        "end to end (median of {} repetitions, tracing off):",
        untraced.len()
    );
    for (name, unit) in END_TO_END {
        let _ = writeln!(text, "  {name:<16} {:>14.4} {unit}", e2e[name]);
    }
    let noise = layers(untraced);
    let _ = write!(text, "host noise:");
    for k in HOST_NOISE {
        if let Some(v) = noise.get(k) {
            let _ = write!(text, " {k} {v:.3}");
        }
    }
    let _ = writeln!(text);
    let loss_pct = failed as f64 * 100.0 / attempted.max(1) as f64;
    let _ = writeln!(
        text,
        "packets: {attempted} offered, {failed} refused or dropped ({loss_pct:.4} %)"
    );

    let metrics = if o.trace {
        let traced = &own[&true].reps;
        let mut own_l = layers(traced);
        own_l.insert("gen.setup_s", inputs.gen_setup_s);
        own_l.insert("loss_pct", loss_pct);
        let e2e_tr = end_to_end(traced);
        let terms = attribution(o.workload, &micro_m, &own_l);
        let sum: f64 = terms.iter().map(|t| t.1).sum();
        let cpu = e2e["cpu_ns_per_pkt"];
        own_l.insert("attr.layer_sum_ns_per_pkt", sum);
        own_l.insert("attr.unattributed_pct", (cpu - sum) * 100.0 / cpu);
        // The closed loops run as fast as they can, so tracing shows as
        // lost rate; the open loop's rate is fixed, so it shows as CPU.
        let overhead = if o.workload == Workload::TraceReplay {
            (e2e_tr["cpu_ns_per_pkt"] - cpu) * 100.0 / cpu
        } else {
            (e2e["delivered_mpps"] - e2e_tr["delivered_mpps"]) * 100.0 / e2e["delivered_mpps"]
        };
        own_l.insert("trace.overhead_pct", overhead);
        let _ = writeln!(
            text,
            "attribution ({}): layer sum {sum:.1} ns/pkt against cpu_ns_per_pkt {cpu:.1}, \
             unattributed {:.1} ns/pkt ({:.1} %); trace.overhead_pct {overhead:.2}",
            o.workload.name(),
            cpu - sum,
            (cpu - sum) * 100.0 / cpu
        );
        for (k, v) in &terms {
            let _ = writeln!(text, "  {k:<36} {v:>10.2} ns/pkt");
        }
        let mut of: BTreeMap<Workload, BTreeMap<&'static str, f64>> = others
            .iter()
            .map(|(w, s)| (*w, layers(&s[&true].reps)))
            .collect();
        of.insert(o.workload, own_l.clone());
        let _ = writeln!(
            text,
            "per layer ({} traced repetitions, {} untraced):",
            traced.len(),
            untraced.len()
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit, src)| {
                let table = match src {
                    Source::Micro => &micro_m,
                    Source::Own => &own_l,
                    Source::Of(w) => &of[&w],
                };
                let v = table.get(name).copied();
                let from = match src {
                    Source::Micro => "microbenchmark".to_string(),
                    Source::Own => o.workload.name().to_string(),
                    Source::Of(w) => w.name().to_string(),
                };
                let shown = v.map_or("not measured".to_string(), |v| format!("{v:.4}"));
                let _ = writeln!(text, "  {name:<36} {shown:>14} {unit:<6} ({from})");
                (name, v.unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, e2e[name], unit))
            .collect()
    };
    Outcome {
        correct: true,
        attempted,
        failed,
        metrics,
        text,
    }
}
