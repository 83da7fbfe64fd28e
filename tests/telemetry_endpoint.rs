//! Tier-1 smoke: the live scrape endpoint end to end.
//!
//! A real (threaded) engine run with `WIRECAP_TELEMETRY_LISTEN` set to
//! an ephemeral port, scraped over a plain [`TcpStream`] while traffic
//! flows: `/metrics` must render valid Prometheus text exposition and
//! `/snapshot.json` the unified snapshot schema, both carrying the
//! run's real counters. A second test pins the escape hatch: with the
//! sampler disabled (`WIRECAP_TELEMETRY_SAMPLE_MS=0`) the engine still
//! captures and the endpoint still serves direct snapshots — only the
//! sampled series goes away.
//!
//! The engine reads its telemetry configuration from the environment at
//! start, so the env-touching tests serialize on one lock (integration
//! tests in this binary share a process).

use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::WireCapConfig;

/// Serializes tests that mutate the `WIRECAP_TELEMETRY_*` environment.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Scoped environment override: sets on construction, restores on drop
/// (even on panic), so one test's env never leaks into another's.
struct EnvGuard {
    key: &'static str,
    prior: Option<std::ffi::OsString>,
}

impl EnvGuard {
    fn set(key: &'static str, value: &str) -> Self {
        let prior = std::env::var_os(key);
        std::env::set_var(key, value);
        EnvGuard { key, prior }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match self.prior.take() {
            Some(v) => std::env::set_var(self.key, v),
            None => std::env::remove_var(self.key),
        }
    }
}

fn inject_flows(nic: &NicSimBackend, n: u16) {
    let mut b = PacketBuilder::new();
    let traffic = (0..n).map(move |i| {
        let flow = FlowKey::udp(
            Ipv4Addr::new(131, 225, 2, (i % 200) as u8 + 1),
            9_000 + i,
            Ipv4Addr::new(10, 0, 0, 1),
            443,
        );
        b.build_packet(u64::from(i), &flow, 128).unwrap()
    });
    apps::live::inject(nic, traffic, 0);
}

/// One HTTP/1.1 GET over a fresh connection; returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting to scrape endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reading reply");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("headers/body separator");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

#[test]
fn scrape_endpoint_serves_a_live_run() {
    let _env = ENV_LOCK.lock().unwrap();
    let _listen = EnvGuard::set("WIRECAP_TELEMETRY_LISTEN", "127.0.0.1:0");
    let _sample = EnvGuard::set("WIRECAP_TELEMETRY_SAMPLE_MS", "5");

    let nic = NicSimBackend::new(LiveNic::new(1, 4096));
    let mut cfg = WireCapConfig::basic(64, 32, 0);
    cfg.capture_timeout_ns = 1_500_000;
    let engine = LiveWireCap::builder()
        .backend(nic.clone())
        .config(cfg)
        .groups(BuddyGroups::isolated(1))
        .start();
    let addr = engine
        .telemetry_addr()
        .expect("WIRECAP_TELEMETRY_LISTEN was set");

    let consumer = {
        let mut c = engine.consumer(0);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while let Some(chunk) = c.next_chunk() {
                n += chunk.len() as u64;
                c.recycle(chunk);
            }
            n
        })
    };
    inject_flows(&nic, 4_000);

    // Scrape mid-run: both documents must be well-formed whenever they
    // are fetched, not only at shutdown.
    let (status, _) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");

    nic.nic().stop();
    let consumed = consumer.join().unwrap();
    assert_eq!(consumed, 4_000, "endpoint must not perturb capture");

    // Post-drain scrape: the counters now cover the whole run.
    let (status, prom) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    // Prometheus text exposition: every exposed family carries # HELP /
    // # TYPE headers and per-queue sample lines.
    for family in [
        "wirecap_captured_packets_total",
        "wirecap_delivered_packets_total",
        "wirecap_capture_queue_watermark",
        "wirecap_latency_ns",
    ] {
        assert!(
            prom.contains(&format!("# TYPE {family} ")),
            "{family}:\n{prom}"
        );
    }
    assert!(
        prom.lines()
            .any(|l| l.starts_with("wirecap_captured_packets_total{") && l.ends_with("} 4000")),
        "whole-run counter:\n{prom}"
    );
    assert!(
        prom.contains("wirecap_latency_ns_bucket{"),
        "latency histogram exposed per queue:\n{prom}"
    );

    let (status, body) = http_get(addr, "/snapshot.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let snap: telemetry::EngineSnapshot =
        serde_json::from_str(&body).expect("snapshot.json parses into the schema");
    let total = snap.total();
    assert_eq!(total.captured_packets, 4_000);
    assert_eq!(total.delivered_packets, 4_000);
    assert!(
        total.latency_ns.count > 0,
        "latency histogram populated by the run"
    );

    // The sampler was live too: the series document reflects it.
    let (status, body) = http_get(addr, "/series.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"samples\""), "series doc: {body}");

    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    engine.shutdown();
    // The endpoint dies with the engine.
    assert!(TcpStream::connect(addr).is_err(), "endpoint must stop");
}

#[test]
fn trace_json_serves_chrome_trace_events_from_a_live_run() {
    let _env = ENV_LOCK.lock().unwrap();
    let _listen = EnvGuard::set("WIRECAP_TELEMETRY_LISTEN", "127.0.0.1:0");
    let _sample = EnvGuard::set("WIRECAP_TELEMETRY_SAMPLE_MS", "0");

    let nic = NicSimBackend::new(LiveNic::new(1, 4096));
    let cfg = WireCapConfig::builder()
        .cells(64)
        .chunks(32)
        .capture_timeout_ns(1_500_000)
        .span_sample_n(1) // trace every chunk
        .build()
        .unwrap();
    let engine = LiveWireCap::builder()
        .backend(nic.clone())
        .config(cfg)
        .groups(BuddyGroups::isolated(1))
        .start();
    let addr = engine.telemetry_addr().expect("endpoint requested");

    let consumer = {
        let mut c = engine.consumer(0);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while let Some(chunk) = c.next_chunk() {
                n += chunk.len() as u64;
                c.recycle(chunk);
            }
            n
        })
    };
    inject_flows(&nic, 2_000);
    nic.nic().stop();
    assert_eq!(consumer.join().unwrap(), 2_000);

    let (status, trace) = http_get(addr, "/trace.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    // Chrome trace-event JSON: an array of objects, every one carrying
    // ph/ts/pid/tid — the contract chrome://tracing / Perfetto loads.
    let parsed: serde::Value = serde_json::from_str(trace.trim()).expect("trace.json parses");
    let events = match parsed {
        serde::Value::Arr(evs) => evs,
        other => panic!("trace.json must be an array, got {other:?}"),
    };
    let mut complete_events = 0usize;
    for e in &events {
        for key in ["ph", "ts", "pid", "tid"] {
            assert!(e.field(key).is_some(), "missing {key}: {e:?}");
        }
        if matches!(e.field("ph"), Some(serde::Value::Str(ph)) if ph == "X") {
            complete_events += 1;
            assert!(e.field("dur").is_some(), "complete event without dur");
        }
    }
    assert!(
        complete_events > 0,
        "a fully sampled run must emit span events; got {} events",
        events.len()
    );

    // The snapshot decomposes the same run per stage.
    let (status, body) = http_get(addr, "/snapshot.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let snap: telemetry::EngineSnapshot = serde_json::from_str(&body).unwrap();
    let total = snap.total();
    assert!(
        total.stage_deliver_ns.count > 0,
        "per-stage histograms populated when span tracing is on"
    );
    assert_eq!(
        total.latency_ns.count, total.stage_deliver_ns.count,
        "sample_n = 1 stages every latency sample"
    );

    // Leave the scraped document where scripts/check.sh validates it
    // with an external JSON parser.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/check-trace.json");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out, &trace).ok();

    engine.shutdown();
}

#[test]
fn sampler_escape_hatch_still_captures_and_serves() {
    let _env = ENV_LOCK.lock().unwrap();
    let _listen = EnvGuard::set("WIRECAP_TELEMETRY_LISTEN", "127.0.0.1:0");
    let _sample = EnvGuard::set("WIRECAP_TELEMETRY_SAMPLE_MS", "0");

    let nic = NicSimBackend::new(LiveNic::new(1, 4096));
    let mut cfg = WireCapConfig::basic(64, 32, 0);
    cfg.capture_timeout_ns = 1_500_000;
    let engine = LiveWireCap::builder()
        .backend(nic.clone())
        .config(cfg)
        .groups(BuddyGroups::isolated(1))
        .start();
    let addr = engine.telemetry_addr().expect("endpoint without sampler");

    let consumer = {
        let mut c = engine.consumer(0);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while let Some(chunk) = c.next_chunk() {
                n += chunk.len() as u64;
                c.recycle(chunk);
            }
            n
        })
    };
    inject_flows(&nic, 1_000);
    nic.nic().stop();
    assert_eq!(consumer.join().unwrap(), 1_000, "sampler off, capture on");

    // Direct snapshots still serve; the sampled series does not exist.
    let (status, _) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (status, _) = http_get(addr, "/series.json");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    engine.shutdown();
}

#[test]
fn no_telemetry_env_means_no_endpoint() {
    let _env = ENV_LOCK.lock().unwrap();
    let _listen = EnvGuard::set("WIRECAP_TELEMETRY_LISTEN", "");
    let _sample = EnvGuard::set("WIRECAP_TELEMETRY_SAMPLE_MS", "0");

    let nic = NicSimBackend::new(LiveNic::new(1, 1024));
    let mut cfg = WireCapConfig::basic(64, 32, 0);
    cfg.capture_timeout_ns = 1_500_000;
    let engine = LiveWireCap::builder()
        .backend(nic.clone())
        .config(cfg)
        .groups(BuddyGroups::isolated(1))
        .start();
    assert!(engine.telemetry_addr().is_none(), "inert env, no endpoint");
    nic.nic().stop();
    engine.shutdown();
}
