//! Seeded, pre-rendered workload inputs. Every frame is built before a
//! repetition starts, so the generator only copies bytes into the ring.

use netproto::{FlowKey, PacketBuilder};
use nicsim::rss::Rss;
use std::net::Ipv4Addr;
use traffic::{generate_border_trace, BorderTraceConfig};

/// A set of frames stored back to back in one buffer.
pub struct Frames {
    bytes: Vec<u8>,
    /// (offset, length) of each frame in `bytes`.
    spans: Vec<(usize, usize)>,
    /// On-wire length of each frame (captured bytes plus the 4-byte FCS).
    pub wire_len: Vec<u32>,
    /// Receive queue of each frame, from Toeplitz RSS on its 5-tuple.
    pub queue: Vec<u8>,
    /// Open loop only: when each frame is due, in ns after replay start.
    pub due_ns: Vec<u64>,
    /// [`digest`] of each frame.
    pub digest: Vec<u64>,
    /// Open loop only: every flow with its packet count.
    pub flows: Vec<(FlowKey, u64)>,
}

impl Frames {
    /// Number of frames.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when there are no frames.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The captured bytes of frame `i`.
    #[inline]
    pub fn data(&self, i: usize) -> &[u8] {
        let (off, len) = self.spans[i];
        &self.bytes[off..off + len]
    }

    fn push(&mut self, data: &[u8], wire_len: u32, queue: u8) {
        self.spans.push((self.bytes.len(), data.len()));
        self.bytes.extend_from_slice(data);
        self.wire_len.push(wire_len);
        self.queue.push(queue);
        self.digest.push(digest(data));
    }

    fn empty() -> Self {
        Frames {
            bytes: Vec::new(),
            spans: Vec::new(),
            wire_len: Vec::new(),
            queue: Vec::new(),
            due_ns: Vec::new(),
            digest: Vec::new(),
            flows: Vec::new(),
        }
    }
}

/// Order-sensitive 64-bit digest of a frame, read a word at a time: the
/// payload touch the closed-loop consumers perform on every packet, and
/// the checksum that proves delivered bytes equal offered bytes.
#[inline]
pub fn digest(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ data.len() as u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: a tiny seeded generator for frame contents.
struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `n` distinct UDP frames of `wire_len` bytes on the wire, all for
/// queue 0: the closed-loop workloads cycle through them.
pub fn fixed_size(seed: u64, n: usize, wire_len: u32) -> Frames {
    let mut rng = SplitMix::new(seed);
    let mut b = PacketBuilder::new();
    let mut f = Frames::empty();
    for _ in 0..n {
        let r = rng.next_u64();
        let flow = FlowKey::udp(
            Ipv4Addr::new(10, (r >> 8) as u8, (r >> 16) as u8, (r >> 24) as u8 | 1),
            (r >> 32) as u16 | 1024,
            Ipv4Addr::new(131, 225, 2, (r >> 48) as u8 | 1),
            443,
        );
        let data = b
            .build(&flow, wire_len as usize - 4)
            .expect("fixed-size frames are renderable");
        f.push(&data, wire_len, 0);
    }
    f
}

/// Mean rate of the default border trace (5 M packets over 32 s), kept
/// when the trace is scaled down to `packets`.
const BORDER_PPS: f64 = 5_000_000.0 / 32.0;

/// The seeded synthetic border trace (heavy-tailed flows in ON/OFF
/// bursts), scaled to `packets` at the default trace's mean rate, with
/// each frame steered by RSS over `queues` and due at its trace
/// timestamp divided by `speedup`.
pub fn border_trace(seed: u64, packets: usize, queues: usize, speedup: f64) -> Frames {
    // Capping the largest flow at 5 % of the trace keeps the tail heavy
    // while bounding how much one seed's elephant can skew the queues.
    let cfg = BorderTraceConfig {
        seed,
        packets,
        duration_s: packets as f64 / BORDER_PPS,
        flows: 1_000,
        max_flow_packets: (packets as f64 / 20.0).max(100.0),
        ..BorderTraceConfig::default()
    };
    let trace = generate_border_trace(&cfg);
    let rss = Rss::new(queues);
    let steer: Vec<u8> = trace.flows().iter().map(|k| rss.steer(k) as u8).collect();
    let t0 = trace.records().first().map_or(0, |r| r.ts_ns);
    let mut b = PacketBuilder::new();
    let mut f = Frames::empty();
    for rec in trace.records() {
        let pkt = trace.render(&mut b, rec);
        f.push(&pkt.data, u32::from(rec.len), steer[rec.flow as usize]);
        f.due_ns.push(((rec.ts_ns - t0) as f64 / speedup) as u64);
    }
    f.flows = trace
        .flows()
        .iter()
        .copied()
        .zip(trace.flow_sizes())
        .filter(|&(_, n)| n > 0)
        .collect();
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_frames_other_seed_other_frames() {
        let a = fixed_size(7, 64, 64);
        let b = fixed_size(7, 64, 64);
        let c = fixed_size(8, 64, 64);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert!((0..a.len()).all(|i| a.data(i).len() == 60));
    }

    #[test]
    fn trace_flow_totals_cover_every_frame() {
        let t = border_trace(3, 20_000, 2, 3.0);
        assert_eq!(t.len(), 20_000);
        assert_eq!(t.flows.iter().map(|f| f.1).sum::<u64>(), 20_000);
        assert!(t.due_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(t.queue.contains(&1));
    }
}
