//! The live telemetry pipeline: sampler + scrape endpoint as one
//! environment-configured unit.
//!
//! Engines and harnesses attach observability with one call:
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use telemetry::pipeline::TelemetryPipeline;
//! # use telemetry::sampler::Observable;
//! # use telemetry::{EngineSnapshot, QueueTelemetry};
//! // Anything that can produce an `EngineSnapshot` is observable —
//! // real engines expose such an observer handle directly.
//! struct MyEngine;
//! impl Observable for MyEngine {
//!     fn snapshot(&self) -> EngineSnapshot {
//!         EngineSnapshot {
//!             engine: "my-engine".into(),
//!             queues: vec![QueueTelemetry::empty(0)],
//!             workers: Vec::new(),
//!             copies: Default::default(),
//!             latency: Default::default(),
//!         }
//!     }
//! }
//! let observer: Arc<dyn Observable> = Arc::new(MyEngine);
//! let pipeline = TelemetryPipeline::start_from_env("my-engine", observer);
//! // … run …
//! drop(pipeline); // stops sampler + endpoint
//! ```
//!
//! Configuration is environment-driven so the `scripts/` harnesses and
//! figure binaries need no flag plumbing:
//!
//! * `WIRECAP_TELEMETRY_LISTEN` — bind address for the scrape endpoint
//!   (e.g. `127.0.0.1:9184`; port `0` for ephemeral). Unset: no
//!   endpoint.
//! * `WIRECAP_TELEMETRY_SAMPLE_MS` — sampling interval in
//!   milliseconds (default 100). **`0` disables the sampler thread
//!   entirely** — the escape hatch for latency-critical runs; the
//!   scrape endpoint still serves `/metrics` and `/snapshot.json`
//!   (direct snapshots), only `/series.json`, anomaly detection and
//!   flight records go away.
//! * `WIRECAP_TELEMETRY_FLIGHT_DIR` — directory for anomaly-triggered
//!   flight records. Unset: anomalies are counted but not dumped.
//!
//! [`TelemetryPipeline::start_from_env`] returns `None` when *neither*
//! a listen address nor a sampler would be active, so the default
//! (no telemetry env) costs nothing — not even a thread.

use crate::anomaly::AnomalyConfig;
use crate::sampler::{Observable, Sampler, SamplerConfig, SamplerCore};
use crate::scrape::ScrapeServer;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Resolved pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Scrape-endpoint bind address; `None` disables the endpoint.
    pub listen: Option<String>,
    /// Sampling interval; `None` disables the sampler thread (the
    /// `WIRECAP_TELEMETRY_SAMPLE_MS=0` escape hatch).
    pub sample_interval: Option<Duration>,
    /// Anomaly thresholds for the sampler.
    pub anomaly: Option<AnomalyConfig>,
    /// Flight-record directory.
    pub flight_dir: Option<std::path::PathBuf>,
}

impl PipelineConfig {
    /// Reads `WIRECAP_TELEMETRY_LISTEN`, `WIRECAP_TELEMETRY_SAMPLE_MS`
    /// and `WIRECAP_TELEMETRY_FLIGHT_DIR`.
    pub fn from_env() -> Self {
        let listen = std::env::var("WIRECAP_TELEMETRY_LISTEN")
            .ok()
            .filter(|s| !s.is_empty());
        let sample_interval = match std::env::var("WIRECAP_TELEMETRY_SAMPLE_MS") {
            Ok(ms) => match ms.trim().parse::<u64>() {
                Ok(0) => None,
                Ok(ms) => Some(Duration::from_millis(ms)),
                Err(_) => {
                    eprintln!(
                        "wirecap telemetry: ignoring invalid WIRECAP_TELEMETRY_SAMPLE_MS={ms:?}"
                    );
                    Some(Duration::from_millis(100))
                }
            },
            Err(_) => Some(Duration::from_millis(100)),
        };
        let flight_dir = std::env::var_os("WIRECAP_TELEMETRY_FLIGHT_DIR")
            .filter(|s| !s.is_empty())
            .map(std::path::PathBuf::from);
        PipelineConfig {
            listen,
            sample_interval,
            anomaly: Some(AnomalyConfig::default()),
            flight_dir,
        }
    }

    /// True when this configuration would start neither a sampler nor
    /// an endpoint.
    pub fn is_inert(&self) -> bool {
        self.listen.is_none() && self.sample_interval.is_none()
    }
}

/// A running sampler + scrape endpoint pair. Dropping (or
/// [`TelemetryPipeline::stop`]) shuts both down.
#[derive(Debug)]
pub struct TelemetryPipeline {
    sampler: Option<Sampler>,
    server: Option<ScrapeServer>,
}

impl TelemetryPipeline {
    /// Starts the pipeline per `cfg`. Returns `None` (and starts no
    /// threads) when `cfg` is inert.
    pub fn start(engine: &str, observer: Arc<dyn Observable>, cfg: PipelineConfig) -> Option<Self> {
        if cfg.is_inert() {
            return None;
        }
        let sampler = cfg.sample_interval.map(|interval| {
            Sampler::start(
                Arc::clone(&observer),
                SamplerConfig {
                    interval,
                    anomaly: cfg.anomaly,
                    flight_dir: cfg.flight_dir.clone(),
                    ..Default::default()
                },
            )
        });
        let server = cfg.listen.as_deref().and_then(|addr| {
            match ScrapeServer::bind(addr, observer, sampler.as_ref().map(Sampler::core)) {
                Ok(s) => {
                    eprintln!(
                        "wirecap telemetry: {engine}: serving http://{}/metrics",
                        s.addr()
                    );
                    Some(s)
                }
                Err(e) => {
                    eprintln!("wirecap telemetry: {engine}: binding {addr}: {e}");
                    None
                }
            }
        });
        if sampler.is_none() && server.is_none() {
            return None;
        }
        Some(TelemetryPipeline { sampler, server })
    }

    /// Starts the pipeline from the environment (see module docs).
    /// `None` when no telemetry env is set — the common case.
    pub fn start_from_env(engine: &str, observer: Arc<dyn Observable>) -> Option<Self> {
        let cfg = PipelineConfig::from_env();
        if cfg.is_inert() {
            return None;
        }
        Self::start(engine, observer, cfg)
    }

    /// The scrape endpoint's bound address, when one is serving.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(ScrapeServer::addr)
    }

    /// The sampler's reader-side state, when a sampler is running.
    pub fn sampler_core(&self) -> Option<Arc<SamplerCore>> {
        self.sampler.as_ref().map(Sampler::core)
    }

    /// Stops sampler and endpoint (idempotent; also runs on drop).
    pub fn stop(&mut self) {
        if let Some(s) = self.sampler.as_mut() {
            s.stop();
        }
        if let Some(s) = self.server.as_mut() {
            s.stop();
        }
    }
}

impl Drop for TelemetryPipeline {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{EngineSnapshot, QueueTelemetry};

    struct Fixed;

    impl Observable for Fixed {
        fn snapshot(&self) -> EngineSnapshot {
            EngineSnapshot {
                engine: "pipeline-test".into(),
                queues: vec![QueueTelemetry::empty(0)],
                workers: Vec::new(),
                copies: sim::stats::CopyMeter::default(),
                latency: sim::stats::LatencyStats::new(),
            }
        }
    }

    #[test]
    fn inert_config_starts_nothing() {
        let cfg = PipelineConfig {
            listen: None,
            sample_interval: None,
            anomaly: None,
            flight_dir: None,
        };
        assert!(cfg.is_inert());
        assert!(TelemetryPipeline::start("x", Arc::new(Fixed), cfg).is_none());
    }

    #[test]
    fn endpoint_without_sampler_is_the_escape_hatch() {
        // WIRECAP_TELEMETRY_SAMPLE_MS=0 semantics: endpoint up, no
        // sampler thread.
        let cfg = PipelineConfig {
            listen: Some("127.0.0.1:0".into()),
            sample_interval: None,
            anomaly: None,
            flight_dir: None,
        };
        let mut p = TelemetryPipeline::start("x", Arc::new(Fixed), cfg).unwrap();
        assert!(p.addr().is_some());
        assert!(p.sampler_core().is_none());
        p.stop();
    }

    #[test]
    fn sampler_and_endpoint_run_together() {
        let cfg = PipelineConfig {
            listen: Some("127.0.0.1:0".into()),
            sample_interval: Some(Duration::from_millis(5)),
            anomaly: None,
            flight_dir: None,
        };
        let mut p = TelemetryPipeline::start("x", Arc::new(Fixed), cfg).unwrap();
        let core = p.sampler_core().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while core.samples() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(core.samples() >= 2);
        p.stop();
    }
}
