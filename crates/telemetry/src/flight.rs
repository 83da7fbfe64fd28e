//! Flight recorder: anomaly-triggered crash-dump of recent telemetry.
//!
//! When the [`crate::anomaly::AnomalyDetector`] fires, the sampler
//! freezes the evidence *around* the event — the event-tracer ring,
//! the recent time-series window with its derived rates, and a full
//! engine snapshot — and writes it to a timestamped JSON file. The
//! point is the same as an aircraft flight recorder's: by the time a
//! human looks at a drop spike, the hot-path state that caused it is
//! long gone; the record preserves the surrounding seconds.
//!
//! Files are written by the *sampler* thread (never a capture thread,
//! never a signal handler) and named
//! `wirecap-flight-<unix_seconds>-<seq>.json`, where `seq` is a
//! process-wide counter so two engines (or two episodes in one
//! second) never collide.

use crate::snapshot::EngineSnapshot;
use crate::spans::SpanRecord;
use crate::timeseries::{Rates, SeriesSample};
use crate::trace::TraceEvent;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide flight-record sequence number (filename uniqueness).
static FLIGHT_SEQ: AtomicU64 = AtomicU64::new(0);

/// A serializable copy of one [`TraceEvent`] (owned `kind`, so the
/// record round-trips through JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Global sequence number of the event.
    pub seq: u64,
    /// Event timestamp, ns.
    pub ts_ns: u64,
    /// Queue whose capture path emitted the event.
    pub queue: u32,
    /// Event kind (see [`crate::trace::kind`]).
    pub kind: String,
    /// Chunk id within its pool.
    pub chunk: u32,
    /// Destination queue for placements.
    pub target: u32,
    /// Kind-specific payload.
    pub info: u64,
}

impl From<&TraceEvent> for FlightEvent {
    fn from(e: &TraceEvent) -> Self {
        FlightEvent {
            seq: e.seq,
            ts_ns: e.ts_ns,
            queue: e.queue,
            kind: e.kind.to_string(),
            chunk: e.chunk,
            target: e.target,
            info: e.info,
        }
    }
}

/// Everything frozen at the moment an anomaly fired.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Engine display name.
    pub engine: String,
    /// Human-readable firing condition (the `Display` of the anomaly).
    pub reason: String,
    /// Monotonic timestamp of the trigger, ns (see [`crate::clock`]).
    pub triggered_ts_ns: u64,
    /// The recent time-series window, oldest first.
    pub series: Vec<SeriesSample>,
    /// Rates derived from consecutive window samples.
    pub rates: Vec<Rates>,
    /// The frozen event-tracer ring, oldest first (empty when the
    /// tracer was disabled).
    pub events: Vec<FlightEvent>,
    /// The frozen completed-span ring, oldest first (empty when span
    /// tracing was off) — the per-stage timeline of the sampled chunks
    /// around the anomaly, same shape `/trace.json` renders.
    pub spans: Vec<SpanRecord>,
    /// Full engine snapshot at the trigger instant.
    pub snapshot: EngineSnapshot,
}

impl FlightRecord {
    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FlightRecord serializes")
    }
}

/// Writes `record` under `dir` as
/// `wirecap-flight-<unix_seconds>-<seq>.json` and returns the path.
/// The directory is created if missing.
pub fn write_flight_record(dir: &Path, record: &FlightRecord) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let seq = FLIGHT_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("wirecap-flight-{unix_s}-{seq}.json"));
    std::fs::write(&path, record.to_json() + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::kind;

    fn record() -> FlightRecord {
        FlightRecord {
            engine: "test".into(),
            reason: "drop-rate spike: 0.5 > 0.01".into(),
            triggered_ts_ns: 123,
            series: vec![SeriesSample {
                ts_ns: 100,
                captured_packets: 10,
                ..Default::default()
            }],
            rates: vec![Rates {
                dt_ns: 100,
                captured_pps: 1e6,
                ..Default::default()
            }],
            events: vec![FlightEvent::from(&TraceEvent {
                seq: 0,
                ts_ns: 99,
                queue: 1,
                kind: kind::OFFLOAD,
                chunk: 7,
                target: 2,
                info: 40,
            })],
            spans: vec![SpanRecord {
                queue: 1,
                seq: 5,
                packets: 64,
                worker: Some(2),
                stage_deliver_ns: 300,
                ..Default::default()
            }],
            snapshot: EngineSnapshot {
                engine: "test".into(),
                queues: vec![],
                workers: vec![],
                copies: sim::stats::CopyMeter::default(),
                latency: sim::stats::LatencyStats::new(),
            },
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = record();
        let back: FlightRecord = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(back.reason, r.reason);
        assert_eq!(back.series, r.series);
        assert_eq!(back.events, r.events);
        assert_eq!(back.events[0].kind, "offload");
        assert_eq!(back.spans, r.spans);
        assert_eq!(back.spans[0].worker, Some(2));
    }

    #[test]
    fn files_are_unique_and_parseable() {
        let dir = std::env::temp_dir().join(format!("wirecap-flight-test-{}", std::process::id()));
        let a = write_flight_record(&dir, &record()).unwrap();
        let b = write_flight_record(&dir, &record()).unwrap();
        assert_ne!(a, b, "sequence number keeps same-second files apart");
        let body = std::fs::read_to_string(&a).unwrap();
        let back: FlightRecord = serde_json::from_str(&body).unwrap();
        assert_eq!(back.engine, "test");
        std::fs::remove_dir_all(&dir).ok();
    }
}
