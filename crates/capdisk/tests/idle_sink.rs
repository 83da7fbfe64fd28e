//! An idle capture-to-disk sink burns no core: with no traffic, the
//! drainer and writer park on their wake-up gates instead of polling.
//!
//! Kept in its own test binary (its own process): the test finds the
//! sink's threads by name under `/proc/self/task`, and other sink tests
//! running in parallel would spawn threads with the same names.

use capdisk::{DiskSink, DiskSinkConfig};
use nicsim::livenic::LiveNic;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::{NicSimBackend, WireCapConfig};

/// Nanoseconds the named thread of this process has spent on a CPU
/// (first field of its `schedstat`), or `None` if no thread has that
/// name.
fn thread_cpu_ns(name: &str) -> Option<u64> {
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            let stat = std::fs::read_to_string(path.join("schedstat")).ok()?;
            return stat.split_whitespace().next()?.parse().ok();
        }
    }
    None
}

fn start(nic: &Arc<LiveNic>) -> LiveWireCap {
    LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(nic)))
        .config(WireCapConfig::basic(64, 32, 0))
        .groups(BuddyGroups::isolated(1))
        .start()
}

#[test]
fn idle_sink_and_blocked_consumer_burn_no_core() {
    if !Path::new("/proc/self/task").is_dir() {
        eprintln!("skipping: per-thread CPU time needs /proc/self/task (Linux)");
        return;
    }
    let dir = std::env::temp_dir().join(format!("capdisk-idle-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // A disk sink on one engine, a consumer blocked in `next_chunk` on
    // another; neither engine sees a packet.
    let sink_nic = LiveNic::new(1, 1024);
    let sink_engine = start(&sink_nic);
    let sink = DiskSink::attach(&sink_engine, &DiskSinkConfig::new(&dir)).unwrap();
    let nic = LiveNic::new(1, 1024);
    let engine = start(&nic);
    let mut consumer = engine.consumer(0);
    let blocked = std::thread::Builder::new()
        .name("idle-next-chunk".into())
        .spawn(move || {
            let mut n = 0u64;
            while let Some(chunk) = consumer.next_chunk() {
                n += chunk.len() as u64;
                consumer.recycle(chunk);
            }
            n
        })
        .unwrap();

    // Let every thread walk its spin and yield stages first.
    std::thread::sleep(Duration::from_millis(50));
    let names = ["capdisk-drain-0", "capdisk-write-0", "idle-next-chunk"];
    let before: Vec<u64> = names
        .iter()
        .map(|n| thread_cpu_ns(n).unwrap_or_else(|| panic!("no thread named {n}")))
        .collect();
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_millis(300));
    let after: Vec<u64> = names.iter().map(|n| thread_cpu_ns(n).unwrap()).collect();
    let wall_ns = t0.elapsed().as_nanos() as f64;

    sink_nic.stop();
    nic.stop();
    let report = sink.wait();
    assert_eq!(blocked.join().unwrap(), 0);
    sink_engine.shutdown();
    engine.shutdown();
    assert!(report.is_conserved());
    std::fs::remove_dir_all(&dir).ok();

    for ((name, b), a) in names.iter().zip(&before).zip(&after) {
        let pct = (a - b) as f64 * 100.0 / wall_ns;
        assert!(
            pct < 10.0,
            "idle thread {name} ran {pct:.1}% of wall time (limit 10%)"
        );
    }
}
