//! Fixed-capacity telemetry time series: samples, deltas, rates.
//!
//! The paper's evaluation (§4) is about behaviour *over time under
//! load* — drop rate as offered load ramps, capture-queue depth as
//! buddy offloading kicks in. A [`TimeSeriesRing`] holds the last N
//! [`SeriesSample`]s taken by the periodic sampler; consecutive samples
//! yield [`Rates`] (pps, drop rate, offload rate, queue-depth peaks)
//! without ever touching the hot path.
//!
//! The ring is allocation-free after construction: capacity is
//! reserved up front and pushes overwrite the oldest slot in place.
//! Rate computation is defensive by construction — counter deltas use
//! saturating subtraction (a restarted engine can only stall a rate,
//! never produce a negative one), and a zero or non-positive interval
//! yields `None` instead of an infinite or NaN rate.

use serde::{Deserialize, Serialize};

use crate::snapshot::EngineSnapshot;

/// One engine-wide telemetry sample, cheap to copy into the ring.
///
/// Counters are monotonic totals (summed over queues); `*_len` fields
/// are gauges observed at the sample instant. `capture_queue_max_len`
/// is the *deepest single queue* — the signal the buddy-offloading
/// threshold T is defined over — while `capture_queue_len` sums all
/// queues.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SeriesSample {
    /// Monotonic timestamp of the sample (ns, see [`crate::clock`]).
    pub ts_ns: u64,
    /// Total packets captured so far.
    pub captured_packets: u64,
    /// Total packets delivered to applications so far.
    pub delivered_packets: u64,
    /// Total packets lost so far (capture + delivery + NIC drops).
    pub drop_packets: u64,
    /// Total chunks sealed so far.
    pub sealed_chunks: u64,
    /// Total chunks placed on buddies so far.
    pub offloaded_chunks: u64,
    /// Total packets the disk sink dropped so far (writer fell behind).
    pub disk_drop_packets: u64,
    /// Total packets recorded into flow tables so far (0 when no flow
    /// sink is attached).
    pub flow_packets: u64,
    /// Gauge: chunks waiting on all capture queues combined.
    pub capture_queue_len: u64,
    /// Gauge: deepest single capture queue at the sample instant.
    pub capture_queue_max_len: u64,
    /// Gauge: free chunks across all pools.
    pub free_chunks: u64,
    /// Gauge: engine-wide p99.9 capture-to-delivery latency (ns),
    /// interpolated from the merged per-queue `latency_ns` histograms
    /// at the sample instant; 0 until any latency is recorded.
    pub latency_p999_ns: u64,
}

impl SeriesSample {
    /// Condenses a full [`EngineSnapshot`] into one sample stamped
    /// `ts_ns`.
    pub fn from_snapshot(ts_ns: u64, snap: &EngineSnapshot) -> Self {
        let mut s = SeriesSample {
            ts_ns,
            ..Default::default()
        };
        let mut latency = crate::hist::HistogramSnapshot::default();
        for q in &snap.queues {
            s.captured_packets += q.captured_packets;
            s.delivered_packets += q.delivered_packets;
            s.drop_packets += q.capture_drop_packets + q.delivery_drop_packets + q.nic_drop_packets;
            s.sealed_chunks += q.sealed_chunks;
            s.offloaded_chunks += q.offloaded_out_chunks;
            s.disk_drop_packets += q.disk_drop_packets;
            s.flow_packets += q.flow_tracked_packets;
            s.capture_queue_len += q.capture_queue_len;
            s.capture_queue_max_len = s.capture_queue_max_len.max(q.capture_queue_len);
            s.free_chunks += q.free_chunks;
            latency.merge(&q.latency_ns);
        }
        s.latency_p999_ns = latency.quantile(0.999);
        s
    }
}

/// Rates derived from two consecutive samples of the same engine.
///
/// All rates are finite and non-negative by construction: deltas
/// saturate at zero and the constructor refuses non-positive
/// intervals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Rates {
    /// Interval the rates are averaged over, ns (> 0).
    pub dt_ns: u64,
    /// Capture rate, packets/s.
    pub captured_pps: f64,
    /// Delivery rate, packets/s.
    pub delivered_pps: f64,
    /// Loss rate, packets/s.
    pub drop_pps: f64,
    /// Fraction of this interval's packets that were lost:
    /// `drops / (captured + drops)`; 0 when the interval saw no
    /// packets.
    pub drop_rate: f64,
    /// Chunk seal rate, chunks/s.
    pub sealed_cps: f64,
    /// Buddy offload rate, chunks/s.
    pub offload_cps: f64,
    /// Fraction of this interval's sealed chunks that were offloaded;
    /// 0 when no chunk was sealed.
    pub offload_rate: f64,
    /// Disk-sink drop rate, packets/s — nonzero only while the disk
    /// writer is falling behind the capture stream.
    pub disk_drop_pps: f64,
    /// Flow-analytics ingest rate, packets/s recorded into flow tables
    /// — nonzero only while a flow sink is attached.
    pub flow_pps: f64,
    /// Deepest single capture queue at the interval's end sample — the
    /// high-watermark signal the anomaly detector compares against the
    /// offload threshold.
    pub queue_depth_peak: u64,
    /// Engine-wide p99.9 capture-to-delivery latency over the interval
    /// (ns): the higher of the two samples' gauges, so a regression in
    /// either endpoint is visible to the tail-latency anomaly rule.
    pub latency_p999_ns: u64,
}

/// Computes rates between `prev` and `next` samples of one engine.
///
/// Returns `None` when `next` is not strictly later than `prev` (clock
/// stall, duplicated sample, or samples pushed out of order), so
/// downstream math never divides by zero.
pub fn rates_between(prev: &SeriesSample, next: &SeriesSample) -> Option<Rates> {
    let dt_ns = next.ts_ns.saturating_sub(prev.ts_ns);
    if dt_ns == 0 {
        return None;
    }
    let secs = dt_ns as f64 / 1e9;
    let d = |a: u64, b: u64| b.saturating_sub(a);
    let captured = d(prev.captured_packets, next.captured_packets);
    let delivered = d(prev.delivered_packets, next.delivered_packets);
    let drops = d(prev.drop_packets, next.drop_packets);
    let sealed = d(prev.sealed_chunks, next.sealed_chunks);
    let offloaded = d(prev.offloaded_chunks, next.offloaded_chunks);
    let disk_drops = d(prev.disk_drop_packets, next.disk_drop_packets);
    let flow = d(prev.flow_packets, next.flow_packets);
    let seen = captured + drops;
    Some(Rates {
        dt_ns,
        captured_pps: captured as f64 / secs,
        delivered_pps: delivered as f64 / secs,
        drop_pps: drops as f64 / secs,
        drop_rate: if seen == 0 {
            0.0
        } else {
            drops as f64 / seen as f64
        },
        sealed_cps: sealed as f64 / secs,
        offload_cps: offloaded as f64 / secs,
        offload_rate: if sealed == 0 {
            0.0
        } else {
            offloaded as f64 / sealed as f64
        },
        disk_drop_pps: disk_drops as f64 / secs,
        flow_pps: flow as f64 / secs,
        queue_depth_peak: next.capture_queue_max_len.max(prev.capture_queue_max_len),
        latency_p999_ns: next.latency_p999_ns.max(prev.latency_p999_ns),
    })
}

/// Fixed-capacity ring of [`SeriesSample`]s, oldest overwritten first.
///
/// All storage is reserved in [`TimeSeriesRing::with_capacity`];
/// [`push`](TimeSeriesRing::push) never allocates.
#[derive(Debug)]
pub struct TimeSeriesRing {
    buf: Vec<SeriesSample>,
    capacity: usize,
    /// Index the next push writes (== oldest slot once full).
    next: usize,
}

impl TimeSeriesRing {
    /// Creates a ring retaining the last `capacity` samples
    /// (`capacity` is clamped to ≥ 2 so rates always have a pair).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        TimeSeriesRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
        }
    }

    /// Maximum samples retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no sample has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a sample, overwriting the oldest once full. Never
    /// allocates: capacity was reserved at construction.
    pub fn push(&mut self, sample: SeriesSample) {
        if self.buf.len() < self.capacity {
            self.buf.push(sample);
        } else {
            self.buf[self.next] = sample;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<&SeriesSample> {
        if self.buf.len() < self.capacity {
            self.buf.last()
        } else {
            self.buf
                .get((self.next + self.capacity - 1) % self.capacity)
        }
    }

    /// The retained samples, oldest first. Allocates the returned
    /// vector (reader-side only; the sampler never calls this on the
    /// hot path).
    pub fn window(&self) -> Vec<SeriesSample> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.capacity {
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        out
    }

    /// The last `n` samples, oldest first.
    pub fn tail(&self, n: usize) -> Vec<SeriesSample> {
        let mut w = self.window();
        let skip = w.len().saturating_sub(n);
        w.drain(..skip);
        w
    }

    /// Rates over every consecutive retained pair, oldest first.
    /// Intervals with a non-positive duration are skipped.
    pub fn rates(&self) -> Vec<Rates> {
        let w = self.window();
        w.windows(2)
            .filter_map(|p| rates_between(&p[0], &p[1]))
            .collect()
    }

    /// Rates over the most recent interval, if one exists.
    pub fn last_rates(&self) -> Option<Rates> {
        let w = self.window();
        if w.len() < 2 {
            return None;
        }
        rates_between(&w[w.len() - 2], &w[w.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ts_ns: u64, captured: u64, drops: u64) -> SeriesSample {
        SeriesSample {
            ts_ns,
            captured_packets: captured,
            delivered_packets: captured,
            drop_packets: drops,
            ..Default::default()
        }
    }

    #[test]
    fn rates_are_per_second() {
        let a = sample(0, 0, 0);
        let b = sample(1_000_000_000, 10_000, 100);
        let r = rates_between(&a, &b).unwrap();
        assert!((r.captured_pps - 10_000.0).abs() < 1e-9);
        assert!((r.drop_pps - 100.0).abs() < 1e-9);
        assert!((r.drop_rate - 100.0 / 10_100.0).abs() < 1e-12);
    }

    #[test]
    fn zero_interval_yields_none() {
        let a = sample(5, 10, 0);
        assert!(rates_between(&a, &a).is_none());
        let earlier = sample(1, 20, 0);
        assert!(rates_between(&a, &earlier).is_none(), "out-of-order pair");
    }

    #[test]
    fn zero_deltas_yield_zero_rates_not_nan() {
        let a = sample(0, 50, 5);
        let b = sample(1_000, 50, 5);
        let r = rates_between(&a, &b).unwrap();
        assert_eq!(r.captured_pps, 0.0);
        assert_eq!(r.drop_rate, 0.0);
        assert_eq!(r.offload_rate, 0.0);
        assert!(r.drop_rate.is_finite());
    }

    #[test]
    fn counter_regression_saturates_to_zero() {
        // A counter going backwards (engine restart) must not produce
        // a negative rate.
        let a = sample(0, 1_000, 10);
        let b = sample(1_000_000, 400, 2);
        let r = rates_between(&a, &b).unwrap();
        assert_eq!(r.captured_pps, 0.0);
        assert_eq!(r.drop_pps, 0.0);
    }

    #[test]
    fn ring_overwrites_oldest_and_windows_in_order() {
        let mut ring = TimeSeriesRing::with_capacity(4);
        assert!(ring.is_empty());
        for i in 0..10u64 {
            ring.push(sample(i * 100, i * 10, 0));
        }
        assert_eq!(ring.len(), 4);
        let w = ring.window();
        let ts: Vec<u64> = w.iter().map(|s| s.ts_ns).collect();
        assert_eq!(ts, vec![600, 700, 800, 900]);
        assert_eq!(ring.latest().unwrap().ts_ns, 900);
        assert_eq!(ring.tail(2).first().unwrap().ts_ns, 800);
        assert_eq!(ring.rates().len(), 3);
        let r = ring.last_rates().unwrap();
        assert_eq!(r.dt_ns, 100);
    }
}
