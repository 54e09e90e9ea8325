//! The two-generation heap: segments, allocation, containment tests.
//!
//! Paper §5.2: "Objects are originally allocated in the younger generation
//! and if they pass a garbage collection, they are promoted to the elder
//! generation. ... the younger generation is collected often, while the
//! elder generation is collected less frequently. When a set of objects are
//! promoted to the elder generation, they are copied to the elder
//! generation, with compaction to reduce fragmentation. Once in the elder
//! generation, objects are collected if abandoned, but are no longer
//! compacted."
//!
//! Layout of the heap:
//!
//! * **Young generation** — a single bump-allocated segment. Exhaustion
//!   triggers a minor collection.
//! * **Elder generation** — a list of segments. Allocation first bumps the
//!   most recent segment, then searches the free list rebuilt by each
//!   mark-sweep, then grows a new segment. Elder objects never move, which
//!   is what makes the Motor pinning policy's "already promoted ⇒ no pin
//!   needed" check sound (paper §7.4).
//! * **Large objects** (bigger than half the young capacity) allocate
//!   directly in the elder generation, as in production CLRs; the young
//!   segment could never hold them. This also means very large message
//!   buffers are never moved — the pinning policy then skips them, which is
//!   the behaviour the paper relies on for its large ping-pong buffers.
//!
//! Addresses handed out by the heap are raw `usize` pointers into segment
//! memory. They are only stable while the GC is excluded (cooperative
//! non-polling code) or while the object is pinned / in the elder
//! generation — exactly the discipline the paper's FCalls follow.

use crate::layout::{obj_flags, ObjHeader, ALIGN, HEADER_SIZE};

/// A contiguous memory region backing one generation (or part of one).
pub struct Segment {
    /// Backing store; `u64` guarantees 8-byte alignment of the base.
    mem: Box<[u64]>,
    /// Bump offset in bytes from the base.
    bump: usize,
}

impl Segment {
    /// Allocate a zeroed segment of at least `bytes` capacity.
    pub fn new(bytes: usize) -> Self {
        let words = bytes.div_ceil(8);
        Segment {
            mem: vec![0u64; words.max(8)].into_boxed_slice(),
            bump: 0,
        }
    }

    /// Base address of the segment memory.
    #[inline]
    pub fn base(&self) -> usize {
        self.mem.as_ptr() as usize
    }

    /// One-past-the-end address of the segment capacity.
    #[inline]
    pub fn end(&self) -> usize {
        self.base() + self.capacity()
    }

    /// Capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mem.len() * 8
    }

    /// Bytes currently bump-allocated.
    #[inline]
    pub fn used(&self) -> usize {
        self.bump
    }

    /// Whether `addr` lies within the *allocated* part of this segment.
    #[inline]
    pub fn contains(&self, addr: usize) -> bool {
        addr >= self.base() && addr < self.base() + self.bump
    }

    /// Try to bump-allocate `size` bytes (already aligned); returns the
    /// address or `None` if the segment is full.
    pub fn try_bump(&mut self, size: usize) -> Option<usize> {
        debug_assert!(size.is_multiple_of(ALIGN));
        if self.bump + size > self.capacity() {
            return None;
        }
        let addr = self.base() + self.bump;
        self.bump += size;
        Some(addr)
    }

    /// Reset the bump pointer, logically freeing every object (used after a
    /// minor collection has evacuated the young generation).
    pub fn reset(&mut self) {
        self.bump = 0;
    }

    /// Iterate over the headers of all allocations in this segment,
    /// including `FREE` filler blocks.
    pub fn walk(&self) -> SegmentWalker<'_> {
        SegmentWalker {
            seg: self,
            offset: 0,
        }
    }
}

/// Iterator over object addresses within a segment.
pub struct SegmentWalker<'s> {
    seg: &'s Segment,
    offset: usize,
}

impl Iterator for SegmentWalker<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.offset >= self.seg.bump {
            return None;
        }
        let addr = self.seg.base() + self.offset;
        // SAFETY: every allocation writes a header before the bump pointer
        // moves past it, so the allocated prefix is always parseable.
        let size = unsafe { (*(addr as *const ObjHeader)).size } as usize;
        debug_assert!(size >= HEADER_SIZE && size.is_multiple_of(ALIGN));
        self.offset += size;
        Some(addr)
    }
}

/// A free block in the elder generation (rebuilt by each sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeBlock {
    /// Address of the block (a `FREE`-flagged header lives here).
    pub addr: usize,
    /// Size of the block in bytes.
    pub size: usize,
}

/// A contiguous run of heap bytes handed out by [`Heap::reserve`], to be
/// carved into objects by its holder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reservation {
    /// Address of the first reserved byte.
    pub base: usize,
    /// Bytes reserved.
    pub len: usize,
    /// Whether the run lies in the elder generation.
    pub old: bool,
    /// Whether the run ends at its segment's bump pointer (young, or the
    /// last elder segment), so an unused tail is given back by moving that
    /// pointer; otherwise it was a free-list block and a tail goes back to
    /// the free list, which needs it to be 0 or at least `HEADER_SIZE`.
    pub at_top: bool,
}

/// Heap configuration.
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Capacity of the young generation in bytes.
    pub young_bytes: usize,
    /// Size of each elder-generation segment in bytes.
    pub old_segment_bytes: usize,
    /// Soft cap on total elder bytes before a full collection is forced.
    pub old_soft_limit: usize,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            young_bytes: 256 * 1024,
            old_segment_bytes: 1024 * 1024,
            old_soft_limit: 64 * 1024 * 1024,
        }
    }
}

/// The two-generation heap.
pub struct Heap {
    config: HeapConfig,
    young: Segment,
    old: Vec<Segment>,
    free_list: Vec<FreeBlock>,
    old_bytes_used: usize,
}

/// Why an allocation could not be satisfied right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPressure {
    /// The young generation is full: run a minor collection.
    NeedsMinor,
    /// The elder generation crossed its soft limit: run a full collection.
    NeedsFull,
}

impl Heap {
    /// Create a heap with the given configuration.
    pub fn new(config: HeapConfig) -> Self {
        let young = Segment::new(config.young_bytes);
        Heap {
            config,
            young,
            old: Vec::new(),
            free_list: Vec::new(),
            old_bytes_used: 0,
        }
    }

    /// Heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Whether `addr` lies in the young generation — the containment test
    /// the Motor pinning policy performs: "Motor checks the object's
    /// internal memory address against the boundaries of the younger
    /// generation" (paper §7.4).
    #[inline]
    pub fn is_young(&self, addr: usize) -> bool {
        self.young.contains(addr)
    }

    /// Whether `addr` is anywhere in this heap.
    pub fn contains(&self, addr: usize) -> bool {
        self.young.contains(addr) || self.old.iter().any(|s| s.contains(addr))
    }

    /// Threshold above which allocations go straight to the elder
    /// generation.
    pub fn large_object_threshold(&self) -> usize {
        self.config.young_bytes / 2
    }

    /// Allocate `size` bytes (aligned) and stamp the given header. The
    /// payload beyond the header is zeroed. Returns the address, or the
    /// collection the caller must run before retrying.
    pub fn alloc(&mut self, size: usize, header: ObjHeader) -> Result<usize, AllocPressure> {
        debug_assert!(size >= HEADER_SIZE && size.is_multiple_of(ALIGN));
        if size > self.large_object_threshold() {
            let mut header = header;
            header.flags |= obj_flags::IN_OLD;
            return self.alloc_old(size, header);
        }
        match self.young.try_bump(size) {
            Some(addr) => {
                Self::stamp(addr, size, header);
                Ok(addr)
            }
            None => Err(AllocPressure::NeedsMinor),
        }
    }

    /// Allocate directly in the elder generation (promotions and large
    /// objects).
    pub fn alloc_old(
        &mut self,
        size: usize,
        mut header: ObjHeader,
    ) -> Result<usize, AllocPressure> {
        header.flags |= obj_flags::IN_OLD;
        if self.old_bytes_used + size > self.config.old_soft_limit {
            return Err(AllocPressure::NeedsFull);
        }
        // 1. Bump the most recent segment.
        if let Some(seg) = self.old.last_mut() {
            if let Some(addr) = seg.try_bump(size) {
                Self::stamp(addr, size, header);
                self.old_bytes_used += size;
                return Ok(addr);
            }
        }
        // 2. First-fit from the free list (elder gen is never compacted, so
        //    freed holes are the only reusable space — paper §5.2).
        if let Some(pos) = self.free_list.iter().position(|b| b.size >= size) {
            let block = self.free_list[pos];
            let remainder = block.size - size;
            if remainder >= HEADER_SIZE {
                // Split: keep the tail as a smaller free block.
                let tail = FreeBlock {
                    addr: block.addr + size,
                    size: remainder,
                };
                Self::stamp_free(tail.addr, tail.size);
                self.free_list[pos] = tail;
            } else {
                // Too small to split; hand out the whole block.
                self.free_list.swap_remove(pos);
            }
            let got = if remainder >= HEADER_SIZE {
                size
            } else {
                block.size
            };
            Self::stamp(
                block.addr,
                got,
                ObjHeader {
                    size: got as u32,
                    ..header
                },
            );
            self.old_bytes_used += got;
            return Ok(block.addr);
        }
        // 3. Grow a new segment.
        let seg_bytes = self.config.old_segment_bytes.max(size);
        let mut seg = Segment::new(seg_bytes);
        let addr = seg.try_bump(size).expect("fresh segment fits request");
        self.old.push(seg);
        Self::stamp(addr, size, header);
        self.old_bytes_used += size;
        Ok(addr)
    }

    /// Allocate in the elder generation ignoring the soft limit — used by
    /// the collector itself during promotion, which must not fail (the
    /// limit is re-checked by the next mutator allocation).
    pub fn alloc_old_unchecked(&mut self, size: usize, header: ObjHeader) -> Option<usize> {
        let saved = self.config.old_soft_limit;
        self.config.old_soft_limit = usize::MAX;
        let r = self.alloc_old(size, header);
        self.config.old_soft_limit = saved;
        r.ok()
    }

    /// Reserve `bytes` (aligned, non-zero) as one contiguous, unstamped run
    /// for several objects: in the young generation, or, past the
    /// large-object threshold, in one piece in the elder generation (the
    /// last segment's bump space, else a free block, else a new segment).
    /// Either way every object carved from the run lives in one
    /// generation. The holder must stamp a header over every byte it keeps
    /// and hand the rest back with [`Heap::release_tail`] before anything
    /// else allocates in or walks the heap.
    pub(crate) fn reserve(&mut self, bytes: usize) -> Result<Reservation, AllocPressure> {
        debug_assert!(bytes > 0 && bytes.is_multiple_of(ALIGN));
        let run = |base, old, at_top| Reservation {
            base,
            len: bytes,
            old,
            at_top,
        };
        if bytes <= self.large_object_threshold() {
            let base = self
                .young
                .try_bump(bytes)
                .ok_or(AllocPressure::NeedsMinor)?;
            return Ok(run(base, false, true));
        }
        if self.old_bytes_used.saturating_add(bytes) > self.config.old_soft_limit {
            return Err(AllocPressure::NeedsFull);
        }
        self.old_bytes_used += bytes;
        if let Some(base) = self.old.last_mut().and_then(|s| s.try_bump(bytes)) {
            return Ok(run(base, true, true));
        }
        // First fit, taking a whole block or leaving a remainder big enough
        // for a free-block header.
        let fits = |b: &FreeBlock| b.size == bytes || b.size >= bytes + HEADER_SIZE;
        if let Some(pos) = self.free_list.iter().position(fits) {
            let block = self.free_list[pos];
            if block.size == bytes {
                self.free_list.swap_remove(pos);
            } else {
                let rest = FreeBlock {
                    addr: block.addr + bytes,
                    size: block.size - bytes,
                };
                Self::stamp_free(rest.addr, rest.size);
                self.free_list[pos] = rest;
            }
            return Ok(run(block.addr, true, false));
        }
        let mut seg = Segment::new(self.config.old_segment_bytes.max(bytes));
        let base = seg.try_bump(bytes).expect("fresh segment fits request");
        self.old.push(seg);
        Ok(run(base, true, true))
    }

    /// Give back all but the first `used` bytes of `r`, the latest
    /// reservation.
    pub(crate) fn release_tail(&mut self, r: Reservation, used: usize) {
        let tail = r.len - used;
        debug_assert!(tail.is_multiple_of(ALIGN));
        if tail == 0 {
            return;
        }
        if r.old {
            self.old_bytes_used -= tail;
        }
        if !r.at_top {
            debug_assert!(tail >= HEADER_SIZE, "free-list tail too small for a header");
            let rest = FreeBlock {
                addr: r.base + used,
                size: tail,
            };
            Self::stamp_free(rest.addr, rest.size);
            self.free_list.push(rest);
            return;
        }
        let seg = if r.old {
            self.old
                .last_mut()
                .expect("elder reservation has a segment")
        } else {
            &mut self.young
        };
        debug_assert_eq!(seg.base() + seg.bump, r.base + r.len, "not the latest bump");
        seg.bump -= tail;
    }

    /// Append free blocks discovered outside a sweep (pinned-block
    /// promotion) and subtract their bytes from elder usage accounting.
    pub fn add_free_blocks(&mut self, blocks: Vec<FreeBlock>, freed: usize) {
        self.free_list.extend(blocks);
        self.old_bytes_used = self.old_bytes_used.saturating_sub(freed);
    }

    pub(crate) fn stamp(addr: usize, size: usize, mut header: ObjHeader) {
        header.size = size as u32;
        // SAFETY: addr..addr+size was just carved out of a segment we own.
        unsafe {
            std::ptr::write_bytes((addr + HEADER_SIZE) as *mut u8, 0, size - HEADER_SIZE);
            std::ptr::write(addr as *mut ObjHeader, header);
        }
    }

    /// Write a `FREE` filler header over a dead block so segment walks stay
    /// parseable.
    pub fn stamp_free(addr: usize, size: usize) {
        debug_assert!(size >= HEADER_SIZE);
        // SAFETY: caller owns the block.
        unsafe {
            std::ptr::write(
                addr as *mut ObjHeader,
                ObjHeader {
                    mt: u32::MAX,
                    flags: obj_flags::FREE,
                    size: size as u32,
                    extra: 0,
                },
            );
        }
    }

    /// Read an object header.
    #[inline]
    pub fn header(&self, addr: usize) -> ObjHeader {
        debug_assert!(self.contains(addr), "header read outside heap");
        // SAFETY: addr points at a live allocation within this heap.
        unsafe { std::ptr::read(addr as *const ObjHeader) }
    }

    /// Overwrite an object header.
    #[inline]
    pub fn set_header(&mut self, addr: usize, header: ObjHeader) {
        debug_assert!(self.contains(addr));
        // SAFETY: as above.
        unsafe { std::ptr::write(addr as *mut ObjHeader, header) }
    }

    /// Update just the flag bits of a header.
    #[inline]
    pub fn update_flags(&mut self, addr: usize, set: u32, clear: u32) {
        let mut h = self.header(addr);
        h.flags = (h.flags & !clear) | set;
        self.set_header(addr, h);
    }

    /// The young segment (for collection).
    pub fn young(&self) -> &Segment {
        &self.young
    }

    /// Mutable young segment.
    pub fn young_mut(&mut self) -> &mut Segment {
        &mut self.young
    }

    /// Elder segments (for sweeps).
    pub fn old_segments(&self) -> &[Segment] {
        &self.old
    }

    /// Live occupancy `(used_bytes, capacity_bytes)` across the young
    /// segment and every elder segment (the telemetry heap gauges).
    pub fn usage(&self) -> (u64, u64) {
        let mut used = self.young.used() as u64;
        let mut capacity = self.young.capacity() as u64;
        for s in &self.old {
            used += s.used() as u64;
            capacity += s.capacity() as u64;
        }
        (used, capacity)
    }

    /// Replace the young segment with a fresh one and move the current one
    /// into the elder generation — the SSCLI pinned-promotion behaviour:
    /// "the entire block of younger generational memory is assigned to the
    /// elder generation thereby promoting pinned objects" (paper §5.2).
    pub fn promote_young_block(&mut self) {
        let fresh = Segment::new(self.config.young_bytes);
        let block = std::mem::replace(&mut self.young, fresh);
        self.old_bytes_used += block.used();
        // Mark every object in the transferred block as elder-resident.
        let addrs: Vec<usize> = block.walk().collect();
        for addr in addrs {
            // SAFETY: walking our own block.
            unsafe {
                let h = &mut *(addr as *mut ObjHeader);
                h.flags |= obj_flags::IN_OLD;
            }
        }
        self.old.push(block);
    }

    /// Total bytes used by the elder generation (live + unreclaimed).
    pub fn old_bytes_used(&self) -> usize {
        self.old_bytes_used
    }

    /// Rebuild the elder free list after a sweep. `freed` is subtracted
    /// from the elder usage accounting.
    pub fn set_free_list(&mut self, list: Vec<FreeBlock>, freed: usize) {
        self.free_list = list;
        self.old_bytes_used = self.old_bytes_used.saturating_sub(freed);
    }

    /// Current elder free list (test/diagnostic access).
    pub fn free_list(&self) -> &[FreeBlock] {
        &self.free_list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(mt: u32) -> ObjHeader {
        ObjHeader {
            mt,
            flags: 0,
            size: 0,
            extra: 0,
        }
    }

    #[test]
    fn segment_bump_and_walk() {
        let mut seg = Segment::new(256);
        let a = seg.try_bump(32).unwrap();
        let b = seg.try_bump(64).unwrap();
        assert_eq!(b, a + 32);
        // Stamp minimal headers so the walk is parseable.
        Heap::stamp_free(a, 32);
        Heap::stamp_free(b, 64);
        let addrs: Vec<usize> = seg.walk().collect();
        assert_eq!(addrs, vec![a, b]);
        assert!(seg.contains(a) && seg.contains(b));
        assert!(!seg.contains(seg.base() + seg.capacity()));
    }

    #[test]
    fn segment_exhaustion() {
        let mut seg = Segment::new(64);
        assert!(seg.try_bump(64).is_some());
        assert!(seg.try_bump(8).is_none());
        seg.reset();
        assert!(seg.try_bump(8).is_some());
    }

    #[test]
    fn young_alloc_and_pressure() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 1024,
            old_segment_bytes: 4096,
            old_soft_limit: 1 << 20,
        });
        let a = heap.alloc(64, hdr(1)).unwrap();
        assert!(heap.is_young(a));
        assert_eq!(heap.header(a).mt, 1);
        assert_eq!(heap.header(a).size, 64);
        // Fill the young generation.
        let mut last = a;
        loop {
            match heap.alloc(64, hdr(2)) {
                Ok(x) => last = x,
                Err(p) => {
                    assert_eq!(p, AllocPressure::NeedsMinor);
                    break;
                }
            }
        }
        assert!(heap.is_young(last));
    }

    #[test]
    fn large_objects_go_to_elder() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 1024,
            old_segment_bytes: 8192,
            old_soft_limit: 1 << 20,
        });
        let big = heap.alloc(600, hdr(3)).unwrap();
        assert!(!heap.is_young(big));
        assert!(heap.contains(big));
        assert_ne!(heap.header(big).flags & obj_flags::IN_OLD, 0);
    }

    #[test]
    fn payload_is_zeroed() {
        let mut heap = Heap::new(HeapConfig::default());
        let a = heap.alloc(64, hdr(1)).unwrap();
        // SAFETY: freshly allocated object of 64 bytes.
        let payload =
            unsafe { std::slice::from_raw_parts((a + HEADER_SIZE) as *const u8, 64 - HEADER_SIZE) };
        assert!(payload.iter().all(|&b| b == 0));
    }

    #[test]
    fn free_list_first_fit_and_split() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 128,
            old_segment_bytes: 1024,
            old_soft_limit: 1 << 20,
        });
        // Two elder allocations fill a bump region.
        let a = heap.alloc_old(128, hdr(1)).unwrap();
        let _b = heap.alloc_old(896, hdr(2)).unwrap();
        // Simulate a sweep freeing `a`.
        Heap::stamp_free(a, 128);
        heap.set_free_list(vec![FreeBlock { addr: a, size: 128 }], 128);
        // A smaller allocation reuses the hole and splits it.
        let c = heap.alloc_old(64, hdr(3)).unwrap();
        assert_eq!(c, a);
        assert_eq!(heap.free_list().len(), 1);
        assert_eq!(
            heap.free_list()[0],
            FreeBlock {
                addr: a + 64,
                size: 64
            }
        );
        // The remainder is handed out whole when it can't be split.
        let d = heap.alloc_old(56, hdr(4)).unwrap();
        assert_eq!(d, a + 64);
        assert_eq!(
            heap.header(d).size,
            64,
            "unsplittable remainder handed out whole"
        );
        assert!(heap.free_list().is_empty());
    }

    #[test]
    fn old_soft_limit_reports_full_pressure() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 128,
            old_segment_bytes: 1024,
            old_soft_limit: 2048,
        });
        assert!(heap.alloc_old(1024, hdr(1)).is_ok());
        assert!(heap.alloc_old(1024, hdr(1)).is_ok());
        assert_eq!(heap.alloc_old(64, hdr(1)), Err(AllocPressure::NeedsFull));
    }

    #[test]
    fn promote_young_block_transfers_objects() {
        let mut heap = Heap::new(HeapConfig {
            young_bytes: 1024,
            old_segment_bytes: 4096,
            old_soft_limit: 1 << 20,
        });
        let a = heap.alloc(64, hdr(7)).unwrap();
        assert!(heap.is_young(a));
        heap.promote_young_block();
        // Address unchanged, but now elder-resident.
        assert!(!heap.is_young(a));
        assert!(heap.contains(a));
        assert_ne!(heap.header(a).flags & obj_flags::IN_OLD, 0);
        assert_eq!(heap.header(a).mt, 7);
        // New young segment is empty and usable.
        let b = heap.alloc(64, hdr(8)).unwrap();
        assert!(heap.is_young(b));
    }
}
