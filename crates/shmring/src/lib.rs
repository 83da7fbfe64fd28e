//! A shared-memory descriptor-ring capture backend.
//!
//! Where `nicsim::LiveNic` models a NIC as a lock-free queue of owned
//! packets, `shmring` models one the way user-space drivers actually
//! see one: a memory-mapped segment holding a descriptor ring and a
//! pool of DMA-slice-shaped buffers, driven by the RDH/RDT head-tail
//! protocol (ixy-style). Like a NIC's DMA engine, the producer side
//! takes no lock:
//!
//! - **CAS reservation.** A producer claims ring position `head` with
//!   one `compare_exchange`, so any number of producers may share a
//!   ring. The full check reads a producer-side cached tail and reloads
//!   the consumer's `tail` only when that cached room runs out.
//! - **Lap-tagged done word.** The producer writes payload and
//!   descriptor, then publishes position `pos` by storing the tag
//!   `pos / n + 1` into the descriptor's status with Release. The
//!   consumer polls for the tag of its own cursor's lap, so it never
//!   reads `head` and never clears a descriptor: a slot that was polled
//!   but not yet recycled still carries the old lap's tag.
//! - **O(1) recycle.** Returning slots is one `tail` Release store, the
//!   RDT write. `recycle` is load-bearing — forgetting it stalls the
//!   ring exactly as forgetting to write RDT stalls real hardware.
//! - **Split header.** The producers' words (`head`, the cached tail,
//!   `dropped`) and the consumer's (`tail`, `next_read`) sit on cache
//!   lines 128 B apart, so the two sides share only the descriptor and
//!   slot they hand over.
//!
//! [`ShmRingNic`] implements [`wirecap::CaptureBackend`] plus
//! [`wirecap::LoopbackBackend`] (a loopback producer with the same RSS
//! steering as `LiveNic`), so the whole engine — and the conformance
//! suite — runs against it everywhere hardware doesn't exist.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod seg;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use netproto::{parse_frame, Packet};
use nicsim::rss::Rss;
use wirecap::backend::{
    BackendError, BackendQueue, CaptureBackend, LoopbackBackend, QueueAccounting, RxFrame,
};

use seg::{slot_and_tag, RingMem};

/// Bytes per buffer slot. Matches the engine's cell size so a lent
/// frame always fits a chunk cell without re-fragmentation.
pub const SLOT_BYTES: usize = wirecap::config::CELL_BYTES;

/// One receive queue: a descriptor ring over a shared-memory segment.
///
/// The producer side ([`produce`](ShmQueue::produce)) is lock-free and
/// safe for many concurrent producers: each reserves its position with
/// a CAS on `head` and publishes it with a lap-tag Release store, so
/// frames are lent in reservation order. The consumer side
/// (`poll_batch` / `recycle`) is single-consumer by the engine's
/// contract (one capture thread per queue): `poll_batch` reads only
/// descriptors and its own cursor, and `recycle` is one `tail` store.
#[derive(Debug)]
pub struct ShmQueue {
    mem: RingMem,
    n: u64,
    /// Corruption latch: once a malformed descriptor is seen, every
    /// later poll fails with the same error instead of re-reading
    /// garbage. Mid-batch corruption still returns `Ok` for the frames
    /// already lent, keeping the "error ⇒ nothing lent this call"
    /// contract of [`BackendQueue::poll_batch`].
    poison: OnceLock<&'static str>,
}

impl ShmQueue {
    fn new(depth: usize) -> Self {
        ShmQueue {
            mem: RingMem::new(depth),
            n: depth as u64,
            poison: OnceLock::new(),
        }
    }

    /// Writes one frame into the ring: reserves the next position,
    /// copies the payload into its buffer slot, fills its descriptor
    /// and publishes it with a lap-tag Release store. Returns
    /// `Ok(false)` (and counts a drop) when no descriptor is in the
    /// ready state — the ring is full because the consumer hasn't
    /// recycled.
    pub fn produce(&self, ts_ns: u64, wire_len: u32, data: &[u8]) -> Result<bool, BackendError> {
        match self.reserve() {
            Some(pos) => {
                self.publish(pos, ts_ns, wire_len, data);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Claims the next ring position for this producer, or counts a
    /// drop and returns `None` when the ring is full.
    fn reserve(&self) -> Option<u64> {
        let p = &self.mem.header().producer;
        // Tail first: it never passes the head, so a head loaded after
        // it gives a non-negative occupancy on the common path.
        let mut tail = p.cached_tail.load(Ordering::Acquire);
        let mut head = p.head.load(Ordering::Relaxed);
        loop {
            // `tail` is a lower bound on the consumer's tail from here
            // on, so if the CAS below confirms `head` is unchanged,
            // position `head` is within one lap of recycled slots. A
            // reloaded tail may pass a stale `head`; that saturates to
            // an empty ring, and the CAS then fails and refreshes it.
            if head.saturating_sub(tail) >= self.n {
                // The cached room ran out: reload the consumer's tail.
                // Acquire pairs with `recycle`'s Release: once we see
                // the new tail, the consumer is done reading the slots
                // below it and they may be overwritten. Republishing it
                // with Release lets producers that only read the cache
                // inherit that ordering through their Acquire load.
                tail = self.mem.header().consumer.tail.load(Ordering::Acquire);
                if head.saturating_sub(tail) >= self.n {
                    p.dropped.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                p.cached_tail.store(tail, Ordering::Release);
            }
            match p
                .head
                .compare_exchange_weak(head, head + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(head),
                Err(now) => head = now,
            }
        }
    }

    /// Fills the slot and descriptor of reserved position `pos` and
    /// publishes it: the slot belongs to the caller from its winning
    /// `head` CAS until the lap-tag Release store here.
    fn publish(&self, pos: u64, ts_ns: u64, wire_len: u32, data: &[u8]) {
        let (idx, tag) = slot_and_tag(pos, self.n);
        let take = data.len().min(SLOT_BYTES);
        self.mem.write_buf(idx, &data[..take]);
        let d = self.mem.desc(idx);
        d.ts_ns.store(ts_ns, Ordering::Relaxed);
        d.wire_len.store(wire_len, Ordering::Relaxed);
        d.buf_len.store(take as u32, Ordering::Relaxed);
        // The publication point: the Release makes the payload and the
        // descriptor fields visible to the consumer's Acquire poll, and
        // ends this producer's ownership of the slot.
        d.status.store(tag, Ordering::Release);
    }

    fn poll(&self, max: usize, sink: &mut dyn FnMut(RxFrame<'_>)) -> Result<usize, BackendError> {
        if let Some(reason) = self.poison.get() {
            return Err(BackendError::Corrupt(reason));
        }
        let c = &self.mem.header().consumer;
        let start = c.next_read.load(Ordering::Relaxed);
        let mut cursor = start;
        let (mut idx, mut tag) = slot_and_tag(start, self.n);
        while cursor - start < max as u64 {
            let d = self.mem.desc(idx);
            // Acquire pairs with the producer's lap-tag Release. The
            // ixy move: watch the done word in memory instead of the
            // head. Until this lap's frame is published — whether its
            // position is unreserved, reserved but unwritten, or held
            // back because the slot's last lap is unrecycled — the slot
            // keeps the previous lap's tag, so the cursor stops there.
            if d.status.load(Ordering::Acquire) != tag {
                break;
            }
            let len = d.buf_len.load(Ordering::Relaxed) as usize;
            if len > SLOT_BYTES {
                let reason = "descriptor buf_len exceeds slot size";
                let _ = self.poison.set(reason);
                if cursor == start {
                    return Err(BackendError::Corrupt(reason));
                }
                // Frames already lent this call are intact; report them
                // and fail on the next poll via the latch.
                break;
            }
            sink(RxFrame {
                ts_ns: d.ts_ns.load(Ordering::Relaxed),
                wire_len: d.wire_len.load(Ordering::Relaxed),
                data: self.mem.read_buf(idx, len),
            });
            cursor += 1;
            idx += 1;
            if idx as u64 == self.n {
                idx = 0;
                tag = tag.wrapping_add(1);
            }
        }
        if cursor > start {
            c.next_read.store(cursor, Ordering::Relaxed);
        }
        Ok((cursor - start) as usize)
    }

    fn recycle_delivered(&self, frames: usize) -> Result<(), BackendError> {
        if frames == 0 {
            return Ok(());
        }
        let c = &self.mem.header().consumer;
        let tail = c.tail.load(Ordering::Relaxed);
        if tail + frames as u64 > c.next_read.load(Ordering::Relaxed) {
            return Err(BackendError::Corrupt(
                "recycled more frames than were polled",
            ));
        }
        // Hand the slots back in one Release store (the RDT write),
        // which a producer's Acquire tail load observes. Descriptors
        // keep their tags: the next lap's tag differs, so nothing here
        // needs clearing.
        c.tail.store(tail + frames as u64, Ordering::Release);
        Ok(())
    }
}

impl BackendQueue for ShmQueue {
    fn poll_batch(
        &self,
        max: usize,
        sink: &mut dyn FnMut(RxFrame<'_>),
    ) -> Result<usize, BackendError> {
        self.poll(max, sink)
    }

    fn recycle(&self, frames: usize) -> Result<(), BackendError> {
        self.recycle_delivered(frames)
    }

    fn depth(&self) -> usize {
        let hdr = self.mem.header();
        // Reserved positions count as queued: a frame whose producer won
        // the CAS is accepted and will be published.
        let head = hdr.producer.head.load(Ordering::Relaxed);
        let read = hdr.consumer.next_read.load(Ordering::Relaxed);
        head.saturating_sub(read) as usize
    }

    fn accounting(&self) -> QueueAccounting {
        let hdr = self.mem.header();
        // Every reserved position is an accepted frame, so `head` is
        // the received count.
        let head = hdr.producer.head.load(Ordering::Relaxed);
        QueueAccounting {
            received: head,
            dropped: hdr.producer.dropped.load(Ordering::Relaxed),
            // Descriptors not yet handed back to the producer — polled
            // but unrecycled slots still count as used, as on hardware.
            ring_used: head.saturating_sub(hdr.consumer.tail.load(Ordering::Relaxed)),
            ring_capacity: self.n,
        }
    }
}

/// A multi-queue capture backend over shared-memory descriptor rings,
/// with a loopback producer steering frames by the same Toeplitz RSS
/// as [`nicsim::livenic::LiveNic`].
#[derive(Debug)]
pub struct ShmRingNic {
    queues: Vec<Arc<ShmQueue>>,
    rss: Rss,
    stopped: AtomicBool,
}

impl ShmRingNic {
    /// Maps `queues` descriptor rings of `depth` descriptors each.
    pub fn new(queues: usize, depth: usize) -> Arc<Self> {
        assert!(queues >= 1 && depth >= 1);
        Arc::new(ShmRingNic {
            queues: (0..queues)
                .map(|_| Arc::new(ShmQueue::new(depth)))
                .collect(),
            rss: Rss::new(queues),
            stopped: AtomicBool::new(false),
        })
    }

    /// Direct handle to ring `q`, for producers that bypass RSS (tests,
    /// benches, single-queue pipelines).
    pub fn ring(&self, q: usize) -> Arc<ShmQueue> {
        Arc::clone(&self.queues[q])
    }
}

impl CaptureBackend for ShmRingNic {
    fn name(&self) -> &'static str {
        "shmring"
    }

    fn queue_count(&self) -> usize {
        self.queues.len()
    }

    fn queue(&self, q: usize) -> Arc<dyn BackendQueue> {
        Arc::clone(&self.queues[q]) as Arc<dyn BackendQueue>
    }

    fn stop(&self) -> Result<(), BackendError> {
        self.stopped.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }
}

impl LoopbackBackend for ShmRingNic {
    fn inject(&self, pkt: Packet) -> Option<usize> {
        let q = match parse_frame(&pkt.data).ok().and_then(|p| p.flow) {
            Some(flow) => self.rss.steer(&flow),
            // Non-IP traffic lands on queue 0, as hardware RSS does.
            None => 0,
        };
        match self.queues[q].produce(pkt.ts_ns, pkt.wire_len, &pkt.data) {
            Ok(true) => Some(q),
            Ok(false) | Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netproto::{FlowKey, PacketBuilder};
    use std::net::Ipv4Addr;

    fn packet(i: u16) -> Packet {
        let flow = FlowKey::udp(
            Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1),
            1000 + i,
            Ipv4Addr::new(131, 225, 2, 1),
            443,
        );
        PacketBuilder::new()
            .build_packet(u64::from(i), &flow, 100)
            .unwrap()
    }

    fn drain(q: &ShmQueue, max: usize) -> Vec<(u64, u32, Vec<u8>)> {
        let mut out = Vec::new();
        let polled = q
            .poll(max, &mut |f: RxFrame<'_>| {
                out.push((f.ts_ns, f.wire_len, f.data.to_vec()));
            })
            .unwrap();
        assert_eq!(polled, out.len());
        out
    }

    #[test]
    fn produce_poll_recycle_roundtrip_with_wraparound() {
        let q = ShmQueue::new(4);
        // Three full laps around a 4-slot ring.
        for lap in 0u64..3 {
            for i in 0..4u64 {
                let seq = lap * 4 + i;
                let payload = vec![seq as u8; 60 + seq as usize];
                assert!(q.produce(seq, 60 + seq as u32, &payload).unwrap());
            }
            // Ring is now full: the next produce must drop.
            assert!(!q.produce(999, 60, &[0u8; 60]).unwrap());
            let got = drain(&q, 16);
            assert_eq!(got.len(), 4);
            for (i, (ts, wire, data)) in got.iter().enumerate() {
                let seq = lap * 4 + i as u64;
                assert_eq!(*ts, seq);
                assert_eq!(*wire, 60 + seq as u32);
                assert_eq!(data, &vec![seq as u8; 60 + seq as usize]);
            }
            q.recycle_delivered(4).unwrap();
        }
        let a = q.accounting();
        assert_eq!(a.received, 12);
        assert_eq!(a.dropped, 3);
        assert_eq!(a.ring_used, 0);
        assert_eq!(a.ring_capacity, 4);
    }

    #[test]
    fn unrecycled_slots_stall_the_producer() {
        let q = ShmQueue::new(2);
        assert!(q.produce(1, 60, &[1u8; 60]).unwrap());
        assert!(q.produce(2, 60, &[2u8; 60]).unwrap());
        assert_eq!(drain(&q, 16).len(), 2);
        // Polled but not recycled: descriptors still belong to the
        // consumer, so the producer is stalled exactly as real hardware
        // stalls when RDT never advances.
        assert!(!q.produce(3, 60, &[3u8; 60]).unwrap());
        q.recycle_delivered(1).unwrap();
        assert!(q.produce(3, 60, &[3u8; 60]).unwrap());
    }

    #[test]
    fn over_recycle_is_corrupt() {
        let q = ShmQueue::new(4);
        assert!(q.produce(1, 60, &[1u8; 60]).unwrap());
        assert_eq!(drain(&q, 16).len(), 1);
        match q.recycle_delivered(2) {
            Err(BackendError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The valid recycle still works afterwards.
        q.recycle_delivered(1).unwrap();
    }

    #[test]
    fn corrupt_descriptor_poisons_the_queue_after_the_batch() {
        let q = ShmQueue::new(4);
        assert!(q.produce(1, 60, &[1u8; 60]).unwrap());
        assert!(q.produce(2, 60, &[2u8; 60]).unwrap());
        // Sabotage the second descriptor the way a misbehaving producer
        // would: an impossible buffer length under a published lap tag.
        q.mem
            .desc(1)
            .buf_len
            .store(SLOT_BYTES as u32 + 1, Ordering::Relaxed);
        // The frames before the corruption are still delivered...
        assert_eq!(drain(&q, 16).len(), 1);
        // ...and every poll after it fails with the latched error, so
        // the engine closes the queue instead of reading garbage.
        for _ in 0..2 {
            match q.poll(16, &mut |_| panic!("must lend nothing")) {
                Err(BackendError::Corrupt(_)) => {}
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversize_payload_is_snapped_to_slot() {
        let q = ShmQueue::new(2);
        let big = vec![7u8; SLOT_BYTES + 100];
        assert!(q.produce(1, big.len() as u32, &big).unwrap());
        let got = drain(&q, 1);
        assert_eq!(got[0].1, big.len() as u32); // wire length preserved
        assert_eq!(got[0].2.len(), SLOT_BYTES); // payload snapped
    }

    #[test]
    fn rss_steering_is_flow_stable_and_non_ip_lands_on_queue_zero() {
        let nic = ShmRingNic::new(4, 64);
        let q1 = nic.inject(packet(5)).unwrap();
        let q2 = nic.inject(packet(5)).unwrap();
        assert_eq!(q1, q2);
        let raw = Packet::new(0, vec![0u8; 60]); // ethertype 0x0000
        assert_eq!(nic.inject(raw), Some(0));
        let polled: usize = (0..4).map(|q| drain(&nic.ring(q), 16).len()).sum();
        assert_eq!(polled, 3);
    }

    #[test]
    fn backend_queue_accounting_folds_into_telemetry_once() {
        let nic = ShmRingNic::new(1, 8);
        for i in 0..10 {
            nic.inject(packet(i));
        }
        let queue = CaptureBackend::queue(&*nic, 0);
        assert_eq!(queue.depth(), 8);
        let a = queue.accounting();
        assert_eq!(a.received, 8);
        assert_eq!(a.dropped, 2);
        assert_eq!(a.ring_used, 8);
        assert_eq!(a.ring_capacity, 8);
        let mut t = telemetry::QueueTelemetry::default();
        queue.fill_telemetry(&mut t);
        assert_eq!(t.offered_packets, 10);
        assert_eq!(t.nic_drop_packets, 2);
        assert_eq!(t.ring_used, 8);
        assert_eq!(t.ring_ready, 0);
    }

    #[test]
    fn uneven_partial_recycles_never_relend_and_poll_ignores_head() {
        let q = ShmQueue::new(4);
        let produce = |seq: u64| assert!(q.produce(seq, 60, &[seq as u8; 60]).unwrap());
        let lent = |max: usize| -> Vec<u64> {
            drain(&q, max)
                .into_iter()
                .map(|(ts, _, data)| {
                    assert_eq!(data, vec![ts as u8; 60], "payload of frame {ts}");
                    ts
                })
                .collect()
        };
        (0..4).for_each(produce);
        assert_eq!(lent(16), [0, 1, 2, 3]);
        // Hand back one slot. Slots 1..=3 stay polled but unrecycled,
        // still tagged with lap 0, so the cursor at position 5 (slot 1,
        // lap 1) stops after the one new frame instead of re-lending
        // frames 1..=3.
        q.recycle_delivered(1).unwrap();
        produce(4);
        assert!(!q.produce(99, 60, &[0u8; 60]).unwrap());
        assert_eq!(lent(16), [4]);
        assert_eq!(lent(16), Vec::<u64>::new());
        q.recycle_delivered(3).unwrap();
        (5..8).for_each(produce);
        assert_eq!(lent(2), [5, 6]);
        q.recycle_delivered(2).unwrap();
        (8..10).for_each(produce);
        assert_eq!(lent(16), [7, 8, 9]);
        q.recycle_delivered(4).unwrap();
        assert_eq!(q.accounting().ring_used, 0);

        // A producer that won position 10 and stalls before publishing:
        // position 11 behind it is published, yet poll stops at the
        // first unpublished slot.
        let stalled = q.reserve().unwrap();
        produce(11);
        assert_eq!(lent(16), Vec::<u64>::new());
        assert_eq!(BackendQueue::depth(&q), 2);
        q.publish(stalled, 10, 60, &[10u8; 60]);
        // Poll never reads `head`: with it rewound to look empty, the
        // lap tags alone still lend both frames.
        let head = &q.mem.header().producer.head;
        let real = head.swap(10, Ordering::Relaxed);
        assert_eq!(lent(16), [10, 11]);
        head.store(real, Ordering::Relaxed);
        q.recycle_delivered(2).unwrap();
        let a = q.accounting();
        assert_eq!((a.received, a.dropped, a.ring_used), (12, 1, 0));
    }

    #[test]
    fn concurrent_producers_and_one_consumer_conserve_frames() {
        const PRODUCERS: u32 = 3;
        const PER_PRODUCER: u32 = 300;
        // Payload: producer id, its sequence number, then a fill byte
        // both determine, so a torn or stale slot shows.
        fn payload(t: u32, i: u32) -> [u8; 60] {
            let mut p = [(t * 31 + i) as u8; 60];
            p[..4].copy_from_slice(&t.to_le_bytes());
            p[4..8].copy_from_slice(&i.to_le_bytes());
            p
        }
        let nic = ShmRingNic::new(1, 32);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|t| {
                let ring = nic.ring(0);
                std::thread::spawn(move || {
                    let mut landed = Vec::new();
                    for i in 0..PER_PRODUCER {
                        if ring.produce(u64::from(i), 60, &payload(t, i)).unwrap() {
                            landed.push(i);
                        }
                    }
                    landed
                })
            })
            .collect();
        let consumer = {
            let ring = nic.ring(0);
            let nic = Arc::clone(&nic);
            std::thread::spawn(move || {
                let mut got = vec![Vec::new(); PRODUCERS as usize];
                loop {
                    let polled = ring
                        .poll(16, &mut |f| {
                            let t = u32::from_le_bytes(f.data[..4].try_into().unwrap());
                            let i = u32::from_le_bytes(f.data[4..8].try_into().unwrap());
                            assert_eq!(f.data, payload(t, i), "slot bytes of {t}/{i}");
                            assert_eq!(f.ts_ns, u64::from(i), "descriptor of {t}/{i}");
                            got[t as usize].push(i);
                        })
                        .unwrap();
                    ring.recycle_delivered(polled).unwrap();
                    if polled == 0 {
                        if nic.is_stopped() && BackendQueue::depth(&*ring) == 0 {
                            return got;
                        }
                        std::thread::yield_now();
                    }
                }
            })
        };
        let landed: Vec<Vec<u32>> = producers.into_iter().map(|p| p.join().unwrap()).collect();
        CaptureBackend::stop(&*nic).unwrap();
        let got = consumer.join().unwrap();
        // Each producer's accepted frames arrive exactly once, in its
        // own order.
        assert_eq!(got, landed);
        let accepted: u64 = landed.iter().map(|l| l.len() as u64).sum();
        let a = nic.ring(0).accounting();
        assert_eq!(a.received, accepted);
        assert_eq!(a.received + a.dropped, u64::from(PRODUCERS * PER_PRODUCER));
    }
}
