//! Pre-allocated cell arenas for the live engine's chunks.
//!
//! The paper's ring buffer pool allocates all packet storage once, when a
//! queue is opened: "ring buffers are allocated in chunks … a chunk
//! consists of M cells" (§3.2.1), and afterwards only *metadata* moves.
//! [`ChunkArena`] is that storage: one flat buffer of `R × M` fixed-size
//! cells plus per-cell length/timestamp tables, allocated exactly once.
//! The DMA-fill, capture, and recycle paths never allocate and never copy
//! a payload — they write packet bytes into a cell and move an affine
//! *slot token* between threads.
//!
//! # Token discipline
//!
//! Each of the R chunks is represented by exactly one token, created at
//! arena construction and alive for the arena's lifetime, cycling
//! between two states:
//!
//! * [`FreeSlot`] — the chunk is owned by the capture thread, which may
//!   write packets into its cells (`&mut FreeSlot` proves exclusivity);
//! * [`SealedSlot`] — the chunk is full (or timed out partial) and
//!   read-only; consumers borrow its payload through [`ChunkView`].
//!
//! Neither token is `Clone` and both constructors are private, so at any
//! instant a chunk has exactly one writer *or* any number of readers —
//! never both. Transferring a token across threads through a queue
//! provides the happens-before edge that makes the cell bytes visible.
//!
//! Views borrow the `SealedSlot`; [`ChunkArena::release`] consumes it, so
//! recycling a chunk invalidates every outstanding [`ChunkView`] at
//! compile time.

#[allow(unsafe_code)]
mod imp {
    use std::cell::UnsafeCell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Heap allocations performed by arena construction, process-wide.
    ///
    /// Test hook: the zero-copy integration tests snapshot this before the
    /// hot phase and assert it did not move — proof that capture and
    /// delivery perform no payload allocation after open.
    static ARENA_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// Arena instance ids, so tokens cannot be replayed across arenas.
    static ARENA_IDS: AtomicU64 = AtomicU64::new(1);

    /// Number of arena-construction allocations performed so far,
    /// process-wide (see [`ChunkArena`]). Stable across the hot path by
    /// construction: only [`ChunkArena::with_slots`] increments it.
    pub fn arena_allocations() -> u64 {
        ARENA_ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Unit tests run in parallel in one process, so a test that
    /// asserts [`arena_allocations`] did not move would see other
    /// tests' constructions. Construction holds this lock shared; a
    /// counter-reading test holds it exclusively across its hot phase
    /// (after its own construction, so it cannot deadlock on itself).
    #[cfg(test)]
    static CONSTRUCTION: std::sync::RwLock<()> = std::sync::RwLock::new(());

    /// Blocks arena construction on every thread until the guard drops.
    #[cfg(test)]
    pub(crate) fn quiesce_construction() -> std::sync::RwLockWriteGuard<'static, ()> {
        CONSTRUCTION
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A write-capable token for one chunk of an arena. See the module
    /// docs for the token discipline.
    #[derive(Debug)]
    pub struct FreeSlot {
        arena: u64,
        chunk: u32,
        filled: u32,
    }

    impl FreeSlot {
        /// Packets written into the chunk so far.
        pub fn filled(&self) -> usize {
            self.filled as usize
        }

        /// True if no packet has been written yet.
        pub fn is_empty(&self) -> bool {
            self.filled == 0
        }
    }

    /// A sealed, read-only token for one chunk. Obtained from
    /// [`ChunkArena::seal`]; turned back into a [`FreeSlot`] by
    /// [`ChunkArena::release`].
    #[derive(Debug)]
    pub struct SealedSlot {
        arena: u64,
        chunk: u32,
        len: u32,
        sealed_ns: u64,
    }

    impl SealedSlot {
        /// Packets the sealed chunk holds.
        pub fn len(&self) -> usize {
            self.len as usize
        }

        /// True if the chunk was sealed empty.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Monotonic seal timestamp, ns (0 when sealed without one).
        ///
        /// The token carries one clock read per *chunk*, taken at seal
        /// time; the consumer subtracts it from its own clock read to
        /// get the capture-to-delivery latency without any per-packet
        /// timing cost.
        pub fn sealed_ns(&self) -> u64 {
            self.sealed_ns
        }
    }

    /// One packet borrowed from a sealed chunk: payload slice plus the
    /// capture metadata the cell tables record.
    #[derive(Debug, Clone, Copy)]
    pub struct PacketRef<'a> {
        /// The captured bytes, truncated to the cell size.
        pub data: &'a [u8],
        /// Capture timestamp, nanoseconds.
        pub ts_ns: u64,
        /// Original on-wire frame length.
        pub wire_len: u32,
    }

    /// A borrowed, read-only view of one sealed chunk's packets.
    ///
    /// Lives no longer than the `SealedSlot` it was created from, so
    /// recycling the chunk (which consumes the slot) statically
    /// invalidates the view.
    #[derive(Debug, Clone, Copy)]
    pub struct ChunkView<'a> {
        arena: &'a ChunkArena,
        chunk: u32,
        len: u32,
    }

    impl<'a> ChunkView<'a> {
        /// Packets in the chunk.
        pub fn len(&self) -> usize {
            self.len as usize
        }

        /// True if the chunk holds no packets.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Borrows packet `i` of the chunk.
        ///
        /// # Panics
        /// If `i >= self.len()`.
        pub fn packet(&self, i: usize) -> PacketRef<'a> {
            assert!(i < self.len(), "packet {i} of a {}-packet chunk", self.len);
            let cell = self.chunk as usize * self.arena.m + i;
            // Safety: the chunk is sealed (the caller holds a borrow of
            // its SealedSlot via this view's lifetime), so no &mut
            // FreeSlot for it can exist and these cells are immutable.
            unsafe {
                let len = *self.arena.lens[cell].get() as usize;
                let start = cell * self.arena.cell_bytes;
                let bytes = std::slice::from_raw_parts(self.arena.data[start].get(), len);
                PacketRef {
                    data: bytes,
                    ts_ns: *self.arena.ts[cell].get(),
                    wire_len: *self.arena.wire[cell].get(),
                }
            }
        }

        /// Iterates the chunk's packets in capture order. Takes the view
        /// by value (it is `Copy`), so the iterator is independent of
        /// the view binding and lives for the full `'a`.
        pub fn iter(self) -> impl Iterator<Item = PacketRef<'a>> + 'a {
            (0..self.len()).map(move |i| self.packet(i))
        }
    }

    /// The fixed cell storage for R chunks of M cells each.
    ///
    /// All memory is allocated in [`ChunkArena::with_slots`]; every later
    /// operation is a bounds-checked write or a borrowed read.
    pub struct ChunkArena {
        id: u64,
        m: usize,
        cell_bytes: usize,
        /// `r * m * cell_bytes` payload bytes.
        data: Box<[UnsafeCell<u8>]>,
        /// Captured length per cell.
        lens: Box<[UnsafeCell<u32>]>,
        /// On-wire length per cell.
        wire: Box<[UnsafeCell<u32>]>,
        /// Capture timestamp per cell.
        ts: Box<[UnsafeCell<u64>]>,
    }

    // Safety: cells are only written through an exclusively held &mut
    // FreeSlot and only read through a shared &SealedSlot; the affine
    // token protocol (see module docs) guarantees the two never overlap
    // for the same chunk, and token transfer between threads happens
    // through synchronizing queues.
    unsafe impl Send for ChunkArena {}
    unsafe impl Sync for ChunkArena {}

    impl std::fmt::Debug for ChunkArena {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ChunkArena")
                .field("id", &self.id)
                .field("m", &self.m)
                .field("cell_bytes", &self.cell_bytes)
                .field("cells", &self.lens.len())
                .finish()
        }
    }

    impl ChunkArena {
        /// Allocates an arena of `r` chunks × `m` cells of `cell_bytes`
        /// each, returning it together with the `r` write tokens.
        ///
        /// This is the *only* allocation site on the capture path; the
        /// returned `FreeSlot`s are the complete, final token population.
        pub fn with_slots(r: usize, m: usize, cell_bytes: usize) -> (Arc<Self>, Vec<FreeSlot>) {
            assert!(r > 0 && m > 0 && cell_bytes > 0);
            #[cfg(test)]
            let _construction = CONSTRUCTION
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let cells = r * m;
            let id = ARENA_IDS.fetch_add(1, Ordering::Relaxed);
            let arena = Arc::new(ChunkArena {
                id,
                m,
                cell_bytes,
                data: (0..cells * cell_bytes)
                    .map(|_| UnsafeCell::new(0))
                    .collect(),
                lens: (0..cells).map(|_| UnsafeCell::new(0)).collect(),
                wire: (0..cells).map(|_| UnsafeCell::new(0)).collect(),
                ts: (0..cells).map(|_| UnsafeCell::new(0)).collect(),
            });
            ARENA_ALLOCATIONS.fetch_add(4, Ordering::Relaxed);
            let slots = (0..r as u32)
                .map(|chunk| FreeSlot {
                    arena: id,
                    chunk,
                    filled: 0,
                })
                .collect();
            (arena, slots)
        }

        /// Cells per chunk (the paper's M).
        pub fn m(&self) -> usize {
            self.m
        }

        /// Bytes per cell.
        pub fn cell_bytes(&self) -> usize {
            self.cell_bytes
        }

        fn check(&self, arena: u64, chunk: u32) {
            assert_eq!(arena, self.id, "slot token from a different arena");
            assert!((chunk as usize) < self.lens.len() / self.m);
        }

        /// Writes one packet into the slot's next free cell, truncating
        /// `data` to the cell size. Returns `false` (without writing) if
        /// the chunk is already full.
        pub fn write_packet(
            &self,
            slot: &mut FreeSlot,
            ts_ns: u64,
            wire_len: u32,
            data: &[u8],
        ) -> bool {
            self.check(slot.arena, slot.chunk);
            if slot.filled as usize >= self.m {
                return false;
            }
            let cell = slot.chunk as usize * self.m + slot.filled as usize;
            let copied = data.len().min(self.cell_bytes);
            // Safety: `&mut FreeSlot` is the unique writer token for this
            // chunk, and the cell indices it covers are disjoint from
            // every other chunk's.
            unsafe {
                let start = cell * self.cell_bytes;
                let dst = std::slice::from_raw_parts_mut(self.data[start].get(), copied);
                dst.copy_from_slice(&data[..copied]);
                *self.lens[cell].get() = copied as u32;
                *self.wire[cell].get() = wire_len;
                *self.ts[cell].get() = ts_ns;
            }
            slot.filled += 1;
            true
        }

        /// Seals a chunk for delivery: the token becomes read-only,
        /// carrying the packet count written so far. The seal timestamp
        /// is left at 0; the live engine uses [`ChunkArena::seal_at`].
        pub fn seal(&self, slot: FreeSlot) -> SealedSlot {
            self.seal_at(slot, 0)
        }

        /// Seals a chunk, stamping it with a monotonic timestamp for
        /// capture-to-delivery latency accounting (one clock read per
        /// chunk, taken by the caller).
        pub fn seal_at(&self, slot: FreeSlot, sealed_ns: u64) -> SealedSlot {
            self.check(slot.arena, slot.chunk);
            SealedSlot {
                arena: slot.arena,
                chunk: slot.chunk,
                len: slot.filled,
                sealed_ns,
            }
        }

        /// Recycles a sealed chunk: the token becomes writable again and
        /// previous contents are logically discarded. Consuming the
        /// `SealedSlot` ends every [`ChunkView`] borrowed from it.
        pub fn release(&self, slot: SealedSlot) -> FreeSlot {
            self.check(slot.arena, slot.chunk);
            FreeSlot {
                arena: slot.arena,
                chunk: slot.chunk,
                filled: 0,
            }
        }

        /// Borrows a read-only view of a sealed chunk's packets.
        pub fn view<'a>(&'a self, slot: &'a SealedSlot) -> ChunkView<'a> {
            self.check(slot.arena, slot.chunk);
            ChunkView {
                arena: self,
                chunk: slot.chunk,
                len: slot.len,
            }
        }
    }
}

#[cfg(test)]
pub(crate) use imp::quiesce_construction;
pub use imp::{arena_allocations, ChunkArena, ChunkView, FreeSlot, PacketRef, SealedSlot};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_seal_view_release_roundtrip() {
        let (arena, mut slots) = ChunkArena::with_slots(2, 4, 64);
        let mut slot = slots.pop().unwrap();
        assert!(slot.is_empty());
        assert!(arena.write_packet(&mut slot, 10, 100, b"hello"));
        assert!(arena.write_packet(&mut slot, 20, 200, b"world!"));
        assert_eq!(slot.filled(), 2);
        let sealed = arena.seal_at(slot, 777);
        assert_eq!(sealed.len(), 2);
        assert_eq!(sealed.sealed_ns(), 777);
        let view = arena.view(&sealed);
        assert_eq!(view.len(), 2);
        assert_eq!(view.packet(0).data, b"hello");
        assert_eq!(view.packet(0).ts_ns, 10);
        assert_eq!(view.packet(1).data, b"world!");
        assert_eq!(view.packet(1).wire_len, 200);
        assert_eq!(view.iter().count(), 2);
        let slot = arena.release(sealed);
        assert!(slot.is_empty());
    }

    #[test]
    fn full_chunk_rejects_further_writes() {
        let (arena, mut slots) = ChunkArena::with_slots(1, 2, 64);
        let mut slot = slots.pop().unwrap();
        assert!(arena.write_packet(&mut slot, 0, 64, b"a"));
        assert!(arena.write_packet(&mut slot, 1, 64, b"b"));
        assert!(!arena.write_packet(&mut slot, 2, 64, b"c"));
        assert_eq!(slot.filled(), 2);
    }

    #[test]
    fn oversized_packets_truncate_to_the_cell() {
        let (arena, mut slots) = ChunkArena::with_slots(1, 1, 8);
        let mut slot = slots.pop().unwrap();
        assert!(arena.write_packet(&mut slot, 0, 16, &[7u8; 16]));
        let sealed = arena.seal(slot);
        let view = arena.view(&sealed);
        assert_eq!(view.packet(0).data, &[7u8; 8]);
        assert_eq!(view.packet(0).wire_len, 16);
    }

    #[test]
    fn chunks_do_not_alias() {
        let (arena, mut slots) = ChunkArena::with_slots(2, 1, 16);
        let mut b = slots.pop().unwrap();
        let mut a = slots.pop().unwrap();
        arena.write_packet(&mut a, 0, 16, b"aaaa");
        arena.write_packet(&mut b, 0, 16, b"bbbb");
        let (sa, sb) = (arena.seal(a), arena.seal(b));
        assert_eq!(arena.view(&sa).packet(0).data, b"aaaa");
        assert_eq!(arena.view(&sb).packet(0).data, b"bbbb");
    }

    #[test]
    #[should_panic(expected = "different arena")]
    fn cross_arena_tokens_are_rejected() {
        let (_a, mut sa) = ChunkArena::with_slots(1, 1, 16);
        let (b, _sb) = ChunkArena::with_slots(1, 1, 16);
        let mut slot = sa.pop().unwrap();
        b.write_packet(&mut slot, 0, 16, b"x");
    }

    #[test]
    fn allocation_hook_moves_only_at_construction() {
        let before = arena_allocations();
        let (arena, mut slots) = ChunkArena::with_slots(4, 8, 128);
        let _quiet = quiesce_construction();
        let after_open = arena_allocations();
        assert!(after_open > before);
        let mut slot = slots.pop().unwrap();
        for i in 0..8 {
            arena.write_packet(&mut slot, i, 100, &[i as u8; 100]);
        }
        let sealed = arena.seal(slot);
        let view = arena.view(&sealed);
        let sum: u64 = view.iter().map(|p| u64::from(p.data[0])).sum();
        assert_eq!(sum, (0..8).sum::<u64>());
        arena.release(sealed);
        assert_eq!(arena_allocations(), after_open, "hot path allocated");
    }
}
