package kernel

// The software TLB: the guest memory access fast path. Every guest
// fetch, load and store on the reference path (memory.go) runs a VMA
// binary search, a permission check and a page-map lookup per access.
// The TLB resolves a page once and reuses it: a small direct-mapped
// table from page number to the page's backing array, its VMA
// permissions, and whether the backing is private (not CoW-shared).
//
// An access takes the fast path only when it stays within one page
// whose entry is present and grants the wanted permission — and, for a
// store, whose backing is private. Everything else — a page-crossing
// access, an unpopulated page (whose first touch populates it and
// marks it dirty), a missing permission, a store to a shared page —
// takes the reference path unchanged, so faults, page population and
// CoW breaks happen in exactly one place. A fast store still marks the
// page dirty and reports the write to the block cache (noteFastWrite),
// so the dirty bitmap and loud-write eviction see every store.
//
// Invalidation rides on the hooks the block cache already has
// (DESIGN.md §16): a layout change (Map/Unmap/Protect) flushes the
// table; breakCoW and SetPage, the two places a page's backing array
// is replaced, drop the page's entry; CloneCoW flushes the source's
// table because all its pages just became shared. No other code
// replaces a page's backing array or changes a VMA's permissions.

import "github.com/dynacut/dynacut/internal/delf"

// tlbEntries is the number of TLB entries (a power of two). 32 pages
// hold the text, data and stack working sets of the SPEC-shaped guests:
// under 0.1% of accesses miss, against 15–21% at 8 entries. Every
// running process holds a TLB, so it is kept small.
const tlbEntries = 32

// tlbEntry maps one page number to its resolved backing. An entry is
// present when page is non-nil.
type tlbEntry struct {
	pn      uint64
	page    *[PageSize]byte
	perm    delf.Perm
	private bool // the backing is not shared with a CoW clone
}

type tlb [tlbEntries]tlbEntry

// tlbPage returns the backing page of the n-byte access at addr when
// the fast path can serve it, or nil to take the reference path.
func (m *Memory) tlbPage(addr, n uint64, want delf.Perm) *[PageSize]byte {
	if addr%PageSize > PageSize-n {
		return nil // crosses into the next page
	}
	pn := addr / PageSize
	if m.tlb == nil {
		m.tlb = new(tlb)
	}
	e := &m.tlb[pn%tlbEntries]
	if (e.page == nil || e.pn != pn) && !m.tlbFill(e, pn) {
		return nil
	}
	if e.perm&want != want || (want&delf.PermW != 0 && !e.private) {
		return nil
	}
	return e.page
}

// tlbFill resolves page pn into e. It fails for an unmapped or an
// unpopulated page; the reference path then faults or populates it.
func (m *Memory) tlbFill(e *tlbEntry, pn uint64) bool {
	pg, ok := m.pages[pn]
	if !ok {
		return false
	}
	i := m.vmaIndex(pn * PageSize)
	if i < 0 {
		return false
	}
	_, shared := m.cow[pn]
	*e = tlbEntry{pn: pn, page: (*[PageSize]byte)(pg), perm: m.vmas[i].Perm, private: !shared}
	return true
}

// noteFastWrite is a fast-path store's bookkeeping, the same as a
// reference-path store's: the page is dirty and the write is loud.
func (m *Memory) noteFastWrite(pn uint64) {
	m.dirty[pn] = struct{}{}
	m.noteWrite(pn)
}

// tlbFlush empties the TLB.
func (m *Memory) tlbFlush() {
	if m.tlb != nil {
		*m.tlb = tlb{}
	}
}

// tlbDrop removes page pn's entry, if present.
func (m *Memory) tlbDrop(pn uint64) {
	if m.tlb == nil {
		return
	}
	if e := &m.tlb[pn%tlbEntries]; e.pn == pn {
		*e = tlbEntry{}
	}
}
