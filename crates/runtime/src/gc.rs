//! The region-preserving Cheney copying collector.
//!
//! Collection evacuates the live objects of every live *infinite* region
//! into fresh pages of the **same region** (region identity is
//! observable: `letregion` must still deallocate wholesale), updates all
//! roots and interior pointers, and releases the old pages. Objects in
//! *finite* regions are never moved but are scanned in place so their
//! fields get updated.
//!
//! If the trace reaches a pointer whose page has been released — a value
//! in a deallocated region, reachable from a live object — collection
//! stops with [`GcError::DanglingPointer`]. This is precisely the
//! situation the paper's type system rules out, and precisely what the
//! benchmark strategy `rg-` provokes on the program of Figure 1.
//!
//! A generational mode collects only pages allocated since the last
//! collection ("young" pages), using the write-barrier-maintained
//! remembered set for old-to-young pointers.

use crate::heap::{Heap, Page, RegionId, RegionKind};
use crate::stats::GcPause;
use crate::word::{Header, ObjKind, Word, WORD_BYTES};
use rml_session::trace;
use std::time::Instant;

/// A collection error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcError {
    /// The collector traced a pointer into a deallocated region.
    DanglingPointer {
        /// Where the pointer was found.
        context: &'static str,
    },
    /// A header word failed to decode (heap corruption; indicates a
    /// runtime bug). Carries the failing word and where it was found so
    /// the diagnostic names the object instead of a bare "corruption".
    Corrupt {
        /// The undecodable header word.
        word: u64,
        /// Page the word was read from.
        page: u32,
        /// Word offset within the page.
        offset: u32,
        /// The region owning that page.
        region: u32,
    },
}

impl std::fmt::Display for GcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GcError::DanglingPointer { context } => {
                write!(f, "garbage collector traced a dangling pointer ({context})")
            }
            GcError::Corrupt {
                word,
                page,
                offset,
                region,
            } => write!(
                f,
                "heap corruption during collection: undecodable header \
                 {word:#018x} at page {page} offset {offset} (region r{region})"
            ),
        }
    }
}

impl std::error::Error for GcError {}

impl Heap {
    /// Performs a tracing collection. `roots` are updated in place; pass
    /// `minor = true` for a generational (young-pages-only) collection.
    ///
    /// # Errors
    ///
    /// Returns [`GcError::DanglingPointer`] if a live object points into a
    /// deallocated region, and [`GcError::Corrupt`] on an undecodable
    /// header. The evacuated pages are released on this path too, so the
    /// page accounting stays exact: every allocated page is either
    /// released or owned by a live region. The object graph is not
    /// repaired, though: `roots` and the copied objects may still point
    /// into the released pages. After an error the heap is fit for
    /// reading its statistics and for being dropped, not for further
    /// allocation, reads or collection; callers treat the error as fatal
    /// for the program under execution, as a real collector would crash.
    pub fn collect(&mut self, roots: &mut [Word], minor: bool) -> Result<(), GcError> {
        let _span = trace::span(if minor { "gc.minor" } else { "gc.major" }, "runtime");
        let pause_start = Instant::now();
        let copied_before = self.stats.bytes_copied;
        // 1. Detach the pages to evacuate from every live infinite region,
        //    so copies go to fresh pages; pages that are not evacuated stay
        //    put.
        let mut from_space: Vec<u32> = Vec::new();
        let pages = &mut self.pages;
        for r in &self.live_regions {
            let region = &mut self.regions[r.0 as usize];
            if region.kind != RegionKind::Infinite {
                continue;
            }
            region.pages.retain(|&p| {
                let page = &mut pages[p as usize];
                let evacuate = !minor || page.young;
                if evacuate {
                    page.from_space = true;
                    from_space.push(p);
                }
                !evacuate
            });
        }
        // 2. Trace from the roots.
        let mut queue = std::mem::take(&mut self.gc_queue);
        let traced = self.trace(roots, minor, &mut queue);
        queue.clear();
        self.gc_queue = queue;
        self.remembered.clear();
        // 3. Release the evacuated pages, whether or not the trace
        //    succeeded: no region owns them any more.
        for p in from_space {
            self.release_page(p);
        }
        traced?;
        for p in &mut self.pages {
            p.young = false;
            if p.live {
                p.sealed = true; // never mix generations within a page
            }
        }
        self.stats.gc_count += 1;
        if minor {
            self.stats.minor_gc_count += 1;
        }
        self.bytes_since_gc = 0;
        self.live_after_gc = self
            .pages
            .iter()
            .filter(|p| p.live)
            .map(|p| p.used as u64 * WORD_BYTES)
            .sum();
        let pause = GcPause {
            duration: pause_start.elapsed(),
            bytes_copied: self.stats.bytes_copied - copied_before,
            live_bytes: self.live_after_gc,
            minor,
        };
        self.pauses.push(pause);
        if trace::enabled() {
            trace::counter("heap.live_bytes", self.live_after_gc as f64);
            trace::instant(
                "gc.pause",
                "runtime",
                &[
                    ("us", pause.duration.as_micros() as f64),
                    ("copied_bytes", pause.bytes_copied as f64),
                ],
            );
        }
        Ok(())
    }

    /// Forwards the roots, then the remembered set (minor only), then
    /// the fields of finite regions' pages in place, then drains the
    /// queue of copies. This order fixes where every copy lands, and so
    /// every count a collection reports.
    fn trace(
        &mut self,
        roots: &mut [Word],
        minor: bool,
        queue: &mut Vec<Word>,
    ) -> Result<(), GcError> {
        for w in roots.iter_mut() {
            *w = self.forward(*w, queue, "root")?;
        }
        if minor {
            for i in 0..self.remembered.len() {
                // The object itself is old (not moved); fix its fields.
                let obj = self.remembered[i];
                if self.check_ptr(obj, "remembered").is_ok() {
                    self.scan_object(obj, queue)?;
                }
            }
        }
        // Finite regions are never moved, so their pages are scanned in
        // place: all of them in a major collection, the young ones in a
        // minor one (older pages are covered by the remembered set).
        // Pages handed out during the scan hold copies, which only
        // infinite regions receive.
        for page in 0..self.pages.len() {
            let p = &self.pages[page];
            let region = &self.regions[p.region.0 as usize];
            if p.live && region.live && region.kind == RegionKind::Finite && (!minor || p.young) {
                self.scan_page(page as u32, queue)?;
            }
        }
        while let Some(obj) = queue.pop() {
            self.scan_object(obj, queue)?;
        }
        Ok(())
    }

    /// Forwards one word: immediates pass through; pointers into
    /// non-evacuated pages pass through; pointers into evacuated pages are
    /// copied (once) to fresh pages of their region.
    ///
    /// An evacuated tagged object is overwritten by a `Forward` header and
    /// the new pointer. An untagged object has no header to overwrite:
    /// its page's forwarding bit is set instead, and its word 0 holds the
    /// new pointer.
    fn forward(
        &mut self,
        w: Word,
        queue: &mut Vec<Word>,
        context: &'static str,
    ) -> Result<Word, GcError> {
        if !w.is_pointer() {
            return Ok(w);
        }
        let (page, off, epoch) = w.ptr_parts();
        let off = off as usize;
        let p = self
            .pages
            .get(page as usize)
            .ok_or(GcError::DanglingPointer { context })?;
        if !p.live || p.epoch != epoch || off >= p.used {
            return Err(GcError::DanglingPointer { context });
        }
        if !p.from_space {
            // Not moving; if its region is dead, that's dangling too.
            if !self.regions[p.region.0 as usize].live {
                return Err(GcError::DanglingPointer { context });
            }
            return Ok(w);
        }
        let region = p.region;
        let new = match p.uniform {
            Some(u) => {
                let (slot, bit) = (off / 64, 1u64 << (off % 64));
                if p.forwarded[slot] & bit != 0 {
                    return Ok(Word(p.words[off]));
                }
                let new = self.copy_object(region, page, off, u.words());
                let p = &mut self.pages[page as usize];
                p.forwarded[slot] |= bit;
                p.words[off] = new.0;
                new
            }
            None => {
                let word = p.words[off];
                let header = Header::decode(word).ok_or(GcError::Corrupt {
                    word,
                    page,
                    offset: off as u32,
                    region: region.0,
                })?;
                if header.kind == ObjKind::Forward {
                    return Ok(Word(p.words[off + 1]));
                }
                let n = 1 + header.payload_words() as usize;
                let new = self.copy_object(region, page, off, n);
                let p = &mut self.pages[page as usize];
                p.words[off] = Header {
                    kind: ObjKind::Forward,
                    ..header
                }
                .encode();
                p.words[off + 1] = new.0;
                new
            }
        };
        queue.push(new);
        Ok(new)
    }

    /// Copies the `n` words at `src_off` of page `src_page` (an object,
    /// with its header if it has one) to the end of `region`. A copy is
    /// not program allocation: it counts only as bytes copied, and as a
    /// page if it needs a fresh one.
    fn copy_object(&mut self, region: RegionId, src_page: u32, src_off: usize, n: usize) -> Word {
        let (dst_page, dst_off) = self.bump(region, n);
        self.stats.bytes_copied += n as u64 * WORD_BYTES;
        let (src, dst) = two_pages(&mut self.pages, src_page, dst_page);
        dst.words[dst_off..dst_off + n].copy_from_slice(&src.words[src_off..src_off + n]);
        Word::pointer(dst_page, dst_off as u32, dst.epoch)
    }

    /// Scans the traceable fields of one (already copied or in-place)
    /// object.
    fn scan_object(&mut self, obj: Word, queue: &mut Vec<Word>) -> Result<(), GcError> {
        let (page, off) = self
            .check_ptr(obj, "scan")
            .map_err(|_| GcError::DanglingPointer { context: "scan" })?;
        self.scan_fields(page, off as usize, queue).map(drop)
    }

    /// Scans every object of a page in place.
    fn scan_page(&mut self, page: u32, queue: &mut Vec<Word>) -> Result<(), GcError> {
        let mut off = 0;
        while off < self.pages[page as usize].used {
            off += self.scan_fields(page, off, queue)?;
        }
        Ok(())
    }

    /// Forwards the traceable fields of the object at word `off` of
    /// `page`; returns the object's size in words.
    fn scan_fields(
        &mut self,
        page: u32,
        off: usize,
        queue: &mut Vec<Word>,
    ) -> Result<usize, GcError> {
        let p = &self.pages[page as usize];
        let (fields, size) = match p.uniform {
            Some(u) => (off..off + u.words(), u.words()),
            None => {
                let word = p.words[off];
                let header = Header::decode(word).ok_or(GcError::Corrupt {
                    word,
                    page,
                    offset: off as u32,
                    region: p.region.0,
                })?;
                let size = 1 + header.payload_words() as usize;
                if header.kind == ObjKind::Str {
                    return Ok(size);
                }
                let first = off + 1 + header.raw as usize;
                (first..off + 1 + header.len as usize, size)
            }
        };
        for i in fields {
            let field = Word(self.pages[page as usize].words[i]);
            if field.is_pointer() {
                let new = self.forward(field, queue, "object field")?;
                self.pages[page as usize].words[i] = new.0;
            }
        }
        Ok(size)
    }
}

/// Borrows page `src` shared and page `dst` mutably; they must differ.
fn two_pages(pages: &mut [Page], src: u32, dst: u32) -> (&Page, &mut Page) {
    let (src, dst) = (src as usize, dst as usize);
    debug_assert_ne!(src, dst, "a copy never lands on its own from-space page");
    if src < dst {
        let (lo, hi) = pages.split_at_mut(dst);
        (&lo[src], &mut hi[0])
    } else {
        let (lo, hi) = pages.split_at_mut(src);
        (&hi[0], &mut lo[dst])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{Heap, RegionKind};

    fn pair(h: &mut Heap, r: crate::heap::RegionId, a: Word, b: Word) -> Word {
        h.alloc(r, ObjKind::Pair, 0, &[a.0, b.0])
    }

    pub(super) fn pages_owned_by_live_regions(h: &Heap) -> u64 {
        h.live_regions()
            .iter()
            .map(|r| h.regions[r.0 as usize].pages.len() as u64)
            .sum()
    }

    #[test]
    fn reachable_objects_survive() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let inner = pair(&mut h, r, Word::int(1), Word::int(2));
        let outer = pair(&mut h, r, inner, Word::int(3));
        let mut roots = [outer];
        h.collect(&mut roots, false).unwrap();
        let outer2 = roots[0];
        assert_ne!(outer2, outer, "object should have moved");
        let inner2 = h.field(outer2, 0, "t").unwrap();
        assert_eq!(h.field(inner2, 0, "t").unwrap(), Word::int(1));
        assert_eq!(h.field(outer2, 1, "t").unwrap(), Word::int(3));
        assert_eq!(h.region_of(outer2, "t").unwrap(), r, "region identity");
    }

    #[test]
    fn garbage_is_reclaimed() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let keep = pair(&mut h, r, Word::int(1), Word::int(2));
        for i in 0..10_000 {
            pair(&mut h, r, Word::int(i), Word::int(i));
        }
        let before = h.live_words();
        let mut roots = [keep];
        h.collect(&mut roots, false).unwrap();
        let after = h.live_words();
        assert!(after < before / 4, "before={before} after={after}");
        assert_eq!(h.field(roots[0], 0, "t").unwrap(), Word::int(1));
        assert_eq!(h.stats.gc_count, 1);
    }

    #[test]
    fn empty_string_forwards_without_clobbering_neighbor() {
        // Regression: a zero-byte string must still occupy two words
        // (header + pad), or the in-place forwarding marker written when
        // it is evacuated spills its pointer word over the next object's
        // header. Found by the differential torture oracle (`strings`
        // program, baseline × stress-every-step).
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let empty = h.alloc_str(r, "");
        let neighbor = pair(&mut h, r, Word::int(41), Word::int(42));
        let mut roots = [empty, neighbor];
        h.collect(&mut roots, false).unwrap();
        h.verify(&roots).unwrap();
        assert_eq!(h.read_str(roots[0], "t").unwrap(), "");
        assert_eq!(h.field(roots[1], 0, "t").unwrap(), Word::int(41));
        assert_eq!(h.field(roots[1], 1, "t").unwrap(), Word::int(42));
    }

    #[test]
    fn shared_objects_copied_once() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let shared = pair(&mut h, r, Word::int(7), Word::int(8));
        let a = pair(&mut h, r, shared, shared);
        let mut roots = [a];
        h.collect(&mut roots, false).unwrap();
        let f0 = h.field(roots[0], 0, "t").unwrap();
        let f1 = h.field(roots[0], 1, "t").unwrap();
        assert_eq!(f0, f1, "sharing must be preserved");
    }

    #[test]
    fn cycles_are_handled() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let cell = h.alloc(r, ObjKind::Ref, 0, &[Word::UNIT.0]);
        let p = pair(&mut h, r, cell, Word::int(0));
        h.set_field(cell, 0, p, "t").unwrap();
        let mut roots = [p];
        h.collect(&mut roots, false).unwrap();
        let cell2 = h.field(roots[0], 0, "t").unwrap();
        let back = h.field(cell2, 0, "t").unwrap();
        assert_eq!(back, roots[0], "cycle must close");
    }

    #[test]
    fn dangling_pointer_is_detected() {
        // A live object captures a pointer into a region that is then
        // deallocated: the collector must stop (the paper's scenario).
        let mut h = Heap::new();
        let live = h.create_region(RegionKind::Infinite);
        let dead = h.create_region(RegionKind::Infinite);
        let s = h.alloc_str(dead, "ohno");
        let closure_like = pair(&mut h, live, s, Word::int(0));
        h.drop_region(dead);
        let mut roots = [closure_like];
        let err = h.collect(&mut roots, false).unwrap_err();
        assert!(matches!(err, GcError::DanglingPointer { .. }));
        // The failed collection still released the pages it detached.
        let owned = pages_owned_by_live_regions(&h);
        assert_eq!(h.stats.pages_allocated - h.stats.pages_released, owned);
        assert_eq!(h.live_words(), owned * crate::heap::PAGE_WORDS as u64);
    }

    #[test]
    fn region_identity_preserved_across_regions() {
        let mut h = Heap::new();
        let r1 = h.create_region(RegionKind::Infinite);
        let r2 = h.create_region(RegionKind::Infinite);
        let a = pair(&mut h, r1, Word::int(1), Word::int(1));
        let b = pair(&mut h, r2, a, Word::int(2));
        let mut roots = [b];
        h.collect(&mut roots, false).unwrap();
        assert_eq!(h.region_of(roots[0], "t").unwrap(), r2);
        let a2 = h.field(roots[0], 0, "t").unwrap();
        assert_eq!(h.region_of(a2, "t").unwrap(), r1);
    }

    #[test]
    fn finite_regions_are_scanned_not_moved() {
        let mut h = Heap::new();
        let fin = h.create_region(RegionKind::Finite);
        let inf = h.create_region(RegionKind::Infinite);
        let target = pair(&mut h, inf, Word::int(5), Word::int(6));
        let holder = pair(&mut h, fin, target, Word::int(0));
        // No explicit root for `holder` (finite regions are roots).
        let mut roots: [Word; 0] = [];
        h.collect(&mut roots, false).unwrap();
        // holder didn't move...
        let t2 = h.field(holder, 0, "t").unwrap();
        // ...but its field was forwarded to the moved target.
        assert_eq!(h.field(t2, 0, "t").unwrap(), Word::int(5));
        assert_eq!(h.region_of(holder, "t").unwrap(), fin);
    }

    #[test]
    fn strings_survive_collection() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        let s = h.alloc_str(r, "garbage collection");
        let mut roots = [s];
        h.collect(&mut roots, false).unwrap();
        assert_eq!(h.read_str(roots[0], "t").unwrap(), "garbage collection");
    }

    #[test]
    fn minor_collection_uses_remembered_set() {
        let mut h = Heap::new();
        h.generational = true;
        let r = h.create_region(RegionKind::Infinite);
        let old_cell = h.alloc(r, ObjKind::Ref, 0, &[Word::UNIT.0]);
        let mut roots = [old_cell];
        h.collect(&mut roots, false).unwrap(); // old_cell is now old
        let old_cell = roots[0];
        // Mutate the old cell to point at a young object.
        let young = pair(&mut h, r, Word::int(42), Word::int(43));
        h.set_field(old_cell, 0, young, "t").unwrap();
        assert!(!h.remembered.is_empty(), "write barrier must record");
        // Minor collection with no explicit root for `young`.
        let mut roots = [old_cell];
        h.collect(&mut roots, true).unwrap();
        let young2 = h.field(roots[0], 0, "t").unwrap();
        assert_eq!(h.field(young2, 0, "t").unwrap(), Word::int(42));
        assert_eq!(h.stats.minor_gc_count, 1);
    }

    #[test]
    fn minor_collection_keeps_old_pages() {
        let mut h = Heap::new();
        h.generational = true;
        let r = h.create_region(RegionKind::Infinite);
        let old = pair(&mut h, r, Word::int(1), Word::int(2));
        let mut roots = [old];
        h.collect(&mut roots, false).unwrap();
        let old = roots[0];
        // Young garbage.
        for i in 0..1000 {
            pair(&mut h, r, Word::int(i), Word::int(i));
        }
        let mut roots = [old];
        h.collect(&mut roots, true).unwrap();
        // Old object did not move in the minor collection.
        assert_eq!(roots[0], old);
        assert_eq!(h.field(old, 0, "t").unwrap(), Word::int(1));
    }

    #[test]
    fn collection_resets_trigger() {
        let mut h = Heap::new();
        let r = h.create_region(RegionKind::Infinite);
        for _ in 0..200 {
            pair(&mut h, r, Word::int(0), Word::int(0));
        }
        assert!(h.should_collect(1024, 2.0));
        let mut roots: [Word; 0] = [];
        h.collect(&mut roots, false).unwrap();
        assert!(!h.should_collect(1024, 2.0));
    }
}

#[cfg(test)]
mod untagged_tests {
    use super::*;
    use crate::heap::{Heap, RegionKind, UniformKind};

    #[test]
    fn untagged_pairs_save_the_header_word() {
        let mut tagged = Heap::new();
        let rt = tagged.create_region(RegionKind::Infinite);
        tagged.alloc(rt, ObjKind::Pair, 0, &[Word::int(1).0, Word::int(2).0]);
        let mut untagged = Heap::new();
        let ru = untagged.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Pair));
        untagged.alloc(ru, ObjKind::Pair, 0, &[Word::int(1).0, Word::int(2).0]);
        assert_eq!(tagged.stats.bytes_allocated, 24);
        assert_eq!(untagged.stats.bytes_allocated, 16, "no header word");
    }

    #[test]
    fn untagged_fields_read_back() {
        let mut h = Heap::new();
        let r = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Pair));
        let w = h.alloc(r, ObjKind::Pair, 0, &[Word::int(7).0, Word::int(8).0]);
        assert_eq!(h.field(w, 0, "t").unwrap(), Word::int(7));
        assert_eq!(h.field(w, 1, "t").unwrap(), Word::int(8));
        assert_eq!(h.header(w, "t").unwrap().kind, ObjKind::Pair);
    }

    #[test]
    fn untagged_objects_survive_collection_with_sharing() {
        let mut h = Heap::new();
        let tagged = h.create_region(RegionKind::Infinite);
        let u = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Pair));
        let shared = h.alloc(u, ObjKind::Pair, 0, &[Word::int(1).0, Word::int(2).0]);
        let holder = h.alloc(tagged, ObjKind::Pair, 0, &[shared.0, shared.0]);
        let mut roots = [holder];
        h.collect(&mut roots, false).unwrap();
        let a = h.field(roots[0], 0, "t").unwrap();
        let b = h.field(roots[0], 1, "t").unwrap();
        assert_eq!(a, b, "in-page forwarding must preserve sharing");
        assert_eq!(h.field(a, 0, "t").unwrap(), Word::int(1));
        assert_eq!(h.region_of(a, "t").unwrap(), u, "region identity");
    }

    #[test]
    fn untagged_refs_update_through_collection() {
        let mut h = Heap::new();
        let u = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Ref));
        let p = h.create_region(RegionKind::Infinite);
        let target = h.alloc(p, ObjKind::Pair, 0, &[Word::int(9).0, Word::int(9).0]);
        let cell = h.alloc(u, ObjKind::Ref, 0, &[target.0]);
        let mut roots = [cell];
        h.collect(&mut roots, false).unwrap();
        let t2 = h.field(roots[0], 0, "t").unwrap();
        assert_eq!(h.field(t2, 0, "t").unwrap(), Word::int(9));
    }

    #[test]
    fn untagged_garbage_is_reclaimed() {
        let mut h = Heap::new();
        let u = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Cons));
        let keep = h.alloc(u, ObjKind::Cons, 0, &[Word::int(1).0, Word::NIL.0]);
        for i in 0..10_000 {
            h.alloc(u, ObjKind::Cons, 0, &[Word::int(i).0, Word::NIL.0]);
        }
        let before = h.live_words();
        let mut roots = [keep];
        h.collect(&mut roots, false).unwrap();
        assert!(h.live_words() < before / 4);
        assert_eq!(h.field(roots[0], 0, "t").unwrap(), Word::int(1));
    }

    fn upair(h: &mut Heap, r: crate::heap::RegionId, a: i64, b: i64) -> Word {
        h.alloc(r, ObjKind::Pair, 0, &[Word::int(a).0, Word::int(b).0])
    }

    fn page_of(w: Word) -> u32 {
        w.ptr_parts().0
    }

    #[test]
    fn forwarding_bits_do_not_survive_page_recycling() {
        let mut h = Heap::new();
        let u = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Pair));
        let mut roots: Vec<Word> = (0..300).map(|i| upair(&mut h, u, i, -i)).collect();
        let forwarded_pages: Vec<u32> = roots.iter().map(|w| page_of(*w)).collect();
        // Every object is forwarded, so every from-space page ends the
        // collection with its forwarding bits set.
        h.collect(&mut roots, false).unwrap();
        h.drop_region(u);
        let v = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Pair));
        let mut roots: Vec<Word> = (0..600).map(|i| upair(&mut h, v, 1000 + i, i)).collect();
        assert!(
            roots.iter().any(|w| forwarded_pages.contains(&page_of(*w))),
            "the second batch must reuse the first collection's from-space pages"
        );
        h.collect(&mut roots, false).unwrap();
        h.verify(&roots).unwrap();
        for (i, w) in roots.iter().enumerate() {
            assert_eq!(h.field(*w, 0, "t").unwrap(), Word::int(1000 + i as i64));
            assert_eq!(h.field(*w, 1, "t").unwrap(), Word::int(i as i64));
        }
    }

    #[test]
    fn shared_untagged_ref_is_copied_once() {
        let mut h = Heap::new();
        let u = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Ref));
        let fin = h.create_region(RegionKind::Finite);
        let cell = h.alloc(u, ObjKind::Ref, 0, &[Word::int(5).0]);
        // Two holders in a finite region: scanned in place, never copied.
        let a = h.alloc(fin, ObjKind::Pair, 0, &[cell.0, Word::int(0).0]);
        let b = h.alloc(fin, ObjKind::Pair, 0, &[Word::int(0).0, cell.0]);
        let before = h.stats.bytes_copied;
        h.collect(&mut [], false).unwrap();
        assert_eq!(h.stats.bytes_copied - before, WORD_BYTES, "one word, once");
        let from_a = h.field(a, 0, "t").unwrap();
        assert_ne!(from_a, cell, "the cell moved");
        assert_eq!(from_a, h.field(b, 1, "t").unwrap(), "sharing preserved");
        assert_eq!(h.field(from_a, 0, "t").unwrap(), Word::int(5));
    }

    #[test]
    fn young_untagged_object_survives_through_the_remembered_set() {
        let mut h = Heap::new();
        h.generational = true;
        let refs = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Ref));
        let conses = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Cons));
        let mut roots = [h.alloc(refs, ObjKind::Ref, 0, &[Word::UNIT.0])];
        h.collect(&mut roots, false).unwrap(); // the cell is now old
        let old = roots[0];
        let young = h.alloc(conses, ObjKind::Cons, 0, &[Word::int(42).0, Word::NIL.0]);
        h.set_field(old, 0, young, "t").unwrap();
        assert_eq!(h.remembered, [old], "write barrier must record");
        // No root reaches `young` except through the old cell.
        let mut roots: [Word; 0] = [];
        h.collect(&mut roots, true).unwrap();
        let moved = h.field(old, 0, "t").unwrap();
        assert_ne!(moved, young, "the young cons was evacuated");
        assert_eq!(h.field(moved, 0, "t").unwrap(), Word::int(42));
        assert_eq!(h.field(moved, 1, "t").unwrap(), Word::NIL);
        h.verify(&[old]).unwrap();
    }

    #[test]
    fn stale_pointer_into_recycled_untagged_page_still_dangles() {
        // The victim's page is recycled into a live untagged region and
        // the object now at the victim's offset is forwarded first: the
        // stale pointer must fail the epoch test, not read the new
        // object's forwarding pointer.
        let mut h = Heap::new();
        let live = h.create_region(RegionKind::Infinite);
        let dead = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Pair));
        let victim = upair(&mut h, dead, 1, 2);
        let holder = h.alloc(live, ObjKind::Pair, 0, &[victim.0, Word::int(0).0]);
        h.drop_region(dead);
        let u = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Pair));
        let neighbour = upair(&mut h, u, 3, 4);
        assert_eq!(page_of(neighbour), page_of(victim), "page recycled");
        assert_eq!(neighbour.ptr_parts().1, victim.ptr_parts().1, "same offset");
        let mut roots = [neighbour, holder];
        assert_eq!(
            h.collect(&mut roots, false),
            Err(GcError::DanglingPointer {
                context: "object field"
            })
        );
        let owned = super::tests::pages_owned_by_live_regions(&h);
        assert_eq!(h.stats.pages_allocated - h.stats.pages_released, owned);
    }

    #[test]
    fn dangling_detection_works_for_untagged_regions() {
        let mut h = Heap::new();
        let live = h.create_region(RegionKind::Infinite);
        let dead = h.create_region_uniform(RegionKind::Infinite, Some(UniformKind::Pair));
        let victim = h.alloc(dead, ObjKind::Pair, 0, &[Word::int(1).0, Word::int(2).0]);
        let holder = h.alloc(live, ObjKind::Pair, 0, &[victim.0, Word::int(0).0]);
        h.drop_region(dead);
        let mut roots = [holder];
        assert!(matches!(
            h.collect(&mut roots, false),
            Err(GcError::DanglingPointer { .. })
        ));
    }
}
