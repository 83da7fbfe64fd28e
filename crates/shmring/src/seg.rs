//! The shared-memory segment behind a descriptor ring: one mapped
//! region holding the ring header, the descriptor array, and the
//! DMA-slice-shaped buffer slots, laid out exactly as a user-space
//! driver would map them (ixy-style).
//!
//! All `unsafe` in the crate lives here, behind typed accessors. On
//! Linux the region comes from `mmap(MAP_SHARED | MAP_ANONYMOUS)` — the
//! same call a real driver uses for its DMA-able hugepage pool, and
//! shareable with forked producers; elsewhere it falls back to a
//! page-aligned heap allocation with identical semantics.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU32, AtomicU64};

use crate::SLOT_BYTES;

/// The buffer slot of ring position `pos`, and the lap tag that
/// publishes it in the slot's status word: `pos / n + 1`, from one
/// division. The consumer checks a slot only for its cursor's lap, and
/// the slot then holds that lap's tag or the previous lap's, so tags
/// that differ by one compare correctly modulo 2^32 — the truncation to
/// `u32` is deliberate and wrap-safe. The zeroed segment holds tag 0,
/// i.e. "lap −1 published", so nothing reads as ready.
pub(crate) fn slot_and_tag(pos: u64, n: u64) -> (usize, u32) {
    let lap = pos / n;
    ((pos - lap * n) as usize, (lap as u32).wrapping_add(1))
}

/// The producers' cache line: written on every `produce`, never by the
/// consumer.
#[repr(C, align(128))]
pub(crate) struct ProducerLine {
    /// Positions reserved so far (RDH analog). Producers claim position
    /// `head` with one CAS; every reserved position is accepted and
    /// will be published.
    pub head: AtomicU64,
    /// A copy of `tail` some producer loaded (Acquire) and stored
    /// (Release). It only trails the real tail, so `head - cached_tail`
    /// over-estimates occupancy: producers reload `tail` only when this
    /// cached room runs out.
    pub cached_tail: AtomicU64,
    /// Frames refused because the ring was full — "no receive
    /// descriptor in the ready state".
    pub dropped: AtomicU64,
}

/// The consumer's cache line: written by the capture thread only.
#[repr(C, align(128))]
pub(crate) struct ConsumerLine {
    /// Positions recycled back to the producers (RDT analog): slots
    /// below this are reusable. One Release store per recycle.
    pub tail: AtomicU64,
    /// Positions polled (lent to the engine); always
    /// `tail <= next_read <= head`.
    pub next_read: AtomicU64,
}

/// The ring's control block, at offset 0 of the segment. Counters are
/// free-running u64 positions (never wrapped), so `head - tail` is the
/// occupancy and indexing is `pos % n`. Producer and consumer state sit
/// 128 B apart, so neither side's writes invalidate the other's line
/// (or its adjacent-line prefetch pair).
#[repr(C)]
pub(crate) struct RingHeader {
    pub producer: ProducerLine,
    pub consumer: ConsumerLine,
}

/// One advanced receive descriptor (write-back layout): timestamp,
/// lengths, and the status word carrying the lap tag of
/// [`slot_and_tag`].
#[repr(C)]
pub(crate) struct RxDescriptor {
    /// Arrival timestamp, nanoseconds.
    pub ts_ns: AtomicU64,
    /// Original length on the wire.
    pub wire_len: AtomicU32,
    /// Valid bytes in the buffer slot (≤ [`SLOT_BYTES`]).
    pub buf_len: AtomicU32,
    /// The lap-tagged done word: equals the lap tag of `pos` once the
    /// frame at `pos` is published.
    pub status: AtomicU32,
    _pad: AtomicU32,
}

/// Header region size; descriptors start here (their own cache lines).
const HDR_BYTES: usize = 256;
/// Bytes per descriptor (kept power-of-two for cheap indexing).
const DESC_BYTES: usize = 32;
const _: () = assert!(std::mem::size_of::<RingHeader>() == HDR_BYTES);
const _: () = assert!(std::mem::size_of::<RxDescriptor>() <= DESC_BYTES);

/// The mapped segment plus its geometry: typed views over raw memory.
pub(crate) struct RingMem {
    base: *mut u8,
    len: usize,
    n: usize,
}

// SAFETY: the raw base pointer refers to a region owned by this value
// for its whole lifetime, and every header and descriptor field is an
// atomic. The only non-atomic memory is the buffer slots, and the
// ShmQueue protocol gives each slot exactly one owner at a time: the
// producer whose `head` CAS won position `pos` owns slot `pos % n`
// until its lap-tag Release store; from the consumer's matching Acquire
// until its `tail` Release store past `pos`, the consumer owns it
// read-only; a producer may reserve `pos + n` only after an Acquire
// load that observed that `tail` (directly or through `cached_tail`'s
// Release/Acquire pair), so every write of a slot happens-after the
// last read of its previous lap and every read happens-after its
// write.
unsafe impl Send for RingMem {}
unsafe impl Sync for RingMem {}

impl RingMem {
    /// Maps a zeroed segment for an `n`-descriptor ring.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n >= 1, "ring needs at least one descriptor");
        let len = HDR_BYTES + n * DESC_BYTES + n * SLOT_BYTES;
        let base = alloc::map_zeroed(len);
        // A zeroed region is a valid initial state: head = tail =
        // next_read = cached_tail = 0, and every descriptor's status is
        // tag 0, which no position publishes.
        RingMem { base, len, n }
    }

    pub(crate) fn header(&self) -> &RingHeader {
        // SAFETY: offset 0 is in-bounds, zero-initialized and
        // page-aligned, which covers RingHeader's 128 B alignment;
        // RingHeader is all atomics (valid for any bit pattern).
        unsafe { &*(self.base as *const RingHeader) }
    }

    pub(crate) fn desc(&self, i: usize) -> &RxDescriptor {
        debug_assert!(i < self.n);
        // SAFETY: in-bounds (i < n), 32-byte aligned from an aligned
        // base, zero-initialized, all-atomic field types.
        unsafe { &*(self.base.add(HDR_BYTES + i * DESC_BYTES) as *const RxDescriptor) }
    }

    fn buf_ptr(&self, i: usize) -> *mut u8 {
        debug_assert!(i < self.n);
        // SAFETY: in-bounds: buffers live after the descriptor array.
        unsafe {
            self.base
                .add(HDR_BYTES + self.n * DESC_BYTES + i * SLOT_BYTES)
        }
    }

    /// Copies `data` into buffer slot `i`. Caller must own the slot:
    /// it won the `head` CAS for a position `pos` with `pos % n == i`
    /// and has not yet stored that position's lap tag.
    pub(crate) fn write_buf(&self, i: usize, data: &[u8]) {
        assert!(data.len() <= SLOT_BYTES);
        // SAFETY: destination is in-bounds. The winning CAS makes this
        // producer the slot's only writer (no other producer can hold
        // the same position, and `pos + n` needs `tail > pos`, which
        // needs this write published first); the consumer's last read
        // of the previous lap happens-before this write through the
        // `tail` Release / Acquire pair the reservation checked. Source
        // and destination cannot overlap (segment vs caller memory).
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), self.buf_ptr(i), data.len()) };
    }

    /// Borrows `len` bytes of buffer slot `i`. Caller must hold the
    /// slot readable: it observed the current lap's tag with Acquire
    /// and has not yet moved `tail` past the position. The protocol
    /// guarantees no writer touches the slot while the borrow is lent
    /// to the poll sink.
    pub(crate) fn read_buf(&self, i: usize, len: usize) -> &[u8] {
        assert!(len <= SLOT_BYTES);
        // SAFETY: in-bounds; the producer's write happens-before this
        // read (its lap-tag Release was observed with Acquire), and no
        // producer can reserve the slot's next lap until the consumer's
        // `tail` Release store, which follows the end of the borrow.
        unsafe { std::slice::from_raw_parts(self.buf_ptr(i), len) }
    }
}

impl Drop for RingMem {
    fn drop(&mut self) {
        alloc::unmap(self.base, self.len);
    }
}

impl std::fmt::Debug for RingMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingMem")
            .field("descriptors", &self.n)
            .field("bytes", &self.len)
            .finish()
    }
}

#[cfg(target_os = "linux")]
mod alloc {
    // Declared directly so the workspace needs no `libc` crate: std
    // already links the platform C library, which exports these.
    extern "C" {
        fn mmap(
            addr: *mut u8,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        fn munmap(addr: *mut u8, length: usize) -> i32;
    }

    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_SHARED: i32 = 0x01;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_FAILED: isize = -1;

    pub(super) fn map_zeroed(len: usize) -> *mut u8 {
        // SAFETY: a fresh anonymous shared mapping; the kernel zeroes
        // it and chooses the (page-aligned) address.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            !p.is_null() && p as isize != MAP_FAILED,
            "mmap of {len}-byte ring segment failed"
        );
        p
    }

    pub(super) fn unmap(base: *mut u8, len: usize) {
        // SAFETY: base/len are exactly what map_zeroed returned.
        unsafe { munmap(base, len) };
    }
}

#[cfg(not(target_os = "linux"))]
mod alloc {
    use std::alloc::Layout;

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len, 4096).expect("ring segment layout")
    }

    pub(super) fn map_zeroed(len: usize) -> *mut u8 {
        // SAFETY: non-zero size, valid alignment.
        let p = unsafe { std::alloc::alloc_zeroed(layout(len)) };
        assert!(!p.is_null(), "allocating {len}-byte ring segment failed");
        p
    }

    pub(super) fn unmap(base: *mut u8, len: usize) {
        // SAFETY: base/len/alignment are exactly what map_zeroed used.
        unsafe { std::alloc::dealloc(base, layout(len)) };
    }
}
