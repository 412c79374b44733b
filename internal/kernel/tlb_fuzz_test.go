package kernel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
)

// FuzzGuestMemoryTLB is the TLB fast path's differential test. It
// drives two address spaces through the same random operations: one
// takes every guest access through the fast path (fetch, ReadU64,
// WriteU64, readU8, writeU8), the other through the reference path
// (fetchRef, readGuestRef, WriteGuest), which never builds a TLB.
// Between accesses it changes the layout and the pages underneath —
// Map, Unmap, Protect, SetPage, Write, FlipBits, CloneCoW with writes
// on both sides, SnapshotDirty and ClearDirty — and after each
// operation both spaces must agree on the access's bytes and error,
// the populated pages and their bytes, the dirty set, the VMA table
// and every page's TextGen.
//
// Each operation is four bytes: opcode (its top bit picks the CoW
// side), then three operand bytes.
func FuzzGuestMemoryTLB(f *testing.F) {
	op := func(code, a, b, c byte) []byte { return []byte{code, a, b, c} }
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	// Hand-written seeds, one per invalidation edge. The first access
	// to a page populates it on the reference path; the next one fills
	// the TLB entry the edge must then invalidate.
	f.Add(cat(op(tfMap, 1, 2, 7), op(tfWriteU64, 1, 0, 8), op(tfReadU64, 1, 0, 8),
		op(tfCloneCoW, 0, 0, 0), op(tfReadU64, 1, 0, 8), op(tfWriteU64, 1, 0, 0x18),
		op(tfReadU64|tfSideB, 1, 0, 8), op(tfWriteU64|tfSideB, 1, 0, 0x28), op(tfReadU64, 1, 0, 8)))
	f.Add(cat(op(tfMap, 1, 1, 7), op(tfWriteU8, 1, 0, 0), op(tfFetch, 1, 0, 0),
		op(tfProtect, 1, 1, 3), op(tfFetch, 1, 0, 0), op(tfWriteU64, 1, 1, 0),
		op(tfProtect, 1, 1, 1), op(tfWriteU64, 1, 1, 0), op(tfWriteU8, 1, 1, 0)))
	f.Add(cat(op(tfMap, 2, 1, 3), op(tfWriteU64, 2, 4, 0), op(tfReadU64, 2, 4, 0),
		op(tfUnmap, 2, 1, 0), op(tfReadU64, 2, 4, 0), op(tfMap, 2, 1, 3), op(tfReadU64, 2, 4, 0)))
	f.Add(cat(op(tfMap, 3, 1, 3), op(tfReadU8, 3, 0, 0), op(tfReadU8, 3, 0, 0), op(tfSetPage, 3, 0x5A, 0),
		op(tfReadU8, 3, 0, 0), op(tfWriteU8, 3, 0, 0), op(tfSetPage, 4, 1, 0)))
	f.Add(cat(op(tfMap, 1, 1, 5), op(tfWrite, 1, 0, 0), op(tfFetch, 1, 0, 0),
		op(tfCloneCoW, 0, 0, 0), op(tfFetch|tfSideB, 1, 0, 0), op(tfFlip, 1, 0, 0x0F),
		op(tfFetch, 1, 0, 0), op(tfFlip|tfSideB, 1, 0, 0xF0), op(tfFetch|tfSideB, 1, 0, 0)))
	f.Add(cat(op(tfMap, 1, 2, 3), op(tfWriteU64, 1, 0, 0), op(tfSnapshot, 0, 0, 0),
		op(tfWriteU64, 1, 0, 0), op(tfWriteU8, 2, 0, 0), op(tfSnapshot, 0, 0, 0),
		op(tfWriteU64, 1, 0, 0), op(tfClearDirty, 0, 0, 0), op(tfWriteU8, 1, 0, 0)))
	// Page-crossing accesses and fetches at the end of a mapping.
	f.Add(cat(op(tfMap, 1, 2, 7), op(tfWriteU64, 1, 0xFF, 0x0C), op(tfReadU64, 1, 0xFF, 0x0C),
		op(tfFetch, 1, 0xFF, 0x0A), op(tfFetch, 2, 0xFF, 0x0F), op(tfProtect, 2, 1, 1),
		op(tfFetch, 1, 0xFF, 0x0A)))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 4*(16+rng.Intn(48)))
		rng.Read(seed)
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 4*tfMaxOps)]
		sides := []*tlbPair{newTLBPair()}
		for i := 0; i+4 <= len(ops); i += 4 {
			code, a, b, c := ops[i], ops[i+1], ops[i+2], ops[i+3]
			s := sides[0]
			if code&tfSideB != 0 && len(sides) > 1 {
				s = sides[1]
			}
			step := tfStep{i / 4, [4]byte(ops[i : i+4])}
			if code&^tfSideB == tfCloneCoW {
				sides = []*tlbPair{s, {fast: s.fast.CloneCoW(), ref: s.ref.CloneCoW()}}
			} else {
				s.apply(t, step, code&^tfSideB, a, b, c)
			}
			for _, s := range sides {
				s.compare(t, step)
			}
		}
	})
}

// Fuzz opcodes. tfSideB selects the CoW clone, when there is one.
const (
	tfMap byte = iota
	tfUnmap
	tfProtect
	tfSetPage
	tfWrite
	tfFlip
	tfCloneCoW
	tfSnapshot
	tfClearDirty
	tfFetch
	tfReadU64
	tfWriteU64
	tfReadU8
	tfWriteU8
	tfOps

	tfSideB byte = 0x80
)

// tfMaxOps bounds one input's operations, so a long input cannot
// stall a fuzz worker (each operation compares every page).
const tfMaxOps = 256

// tfStep names an operation in failure messages.
type tfStep struct {
	i  int
	op [4]byte
}

func (s tfStep) String() string { return fmt.Sprintf("op %d %#x", s.i, s.op) }

// tfPages bounds the fuzzed range: mappings cover page numbers
// 1..tfPages-1, accesses reach pages 0..tfPages, so pages 0 and
// tfPages are always unmapped neighbors.
const tfPages = 8

// tlbPair is one address space twice over: fast serves guest accesses
// through the TLB, ref through the reference path only.
type tlbPair struct{ fast, ref *Memory }

func newTLBPair() *tlbPair {
	p := &tlbPair{fast: newMemory(), ref: newMemory()}
	// Allocate the generation space so TextGen is observable.
	p.fast.blockCacheOf()
	p.ref.blockCacheOf()
	return p
}

// tfAddr maps operand bytes to an address in or next to the fuzzed
// range: any byte offset of any page, including every page end.
func tfAddr(a, b, c byte) uint64 {
	return uint64(a%(tfPages+1))*PageSize + (uint64(b)<<4|uint64(c&0xF))%PageSize
}

func (s *tlbPair) apply(t *testing.T, step tfStep, code, a, b, c byte) {
	t.Helper()
	agree := func(what string, errF, errR error) {
		t.Helper()
		if fmt.Sprint(errF) != fmt.Sprint(errR) {
			t.Fatalf("%s: %s: fast err %v, reference err %v", step, what, errF, errR)
		}
	}
	start := uint64(max(1, a%tfPages)) * PageSize
	end := min(start+uint64(1+b%3)*PageSize, tfPages*PageSize)
	perm := delf.Perm(c & 7)
	addr := tfAddr(a, b, c)
	switch code % tfOps {
	case tfMap:
		v := VMA{Start: start, End: end, Perm: perm, Name: "fuzz", Anon: true}
		agree("Map", s.fast.Map(v), s.ref.Map(v))
	case tfUnmap:
		agree("Unmap", s.fast.Unmap(start, end), s.ref.Unmap(start, end))
	case tfProtect:
		agree("Protect", s.fast.Protect(start, end, perm), s.ref.Protect(start, end, perm))
	case tfSetPage:
		page := bytes.Repeat([]byte{b}, PageSize)
		pn := uint64(a % (tfPages + 1))
		agree("SetPage", s.fast.SetPage(pn, page), s.ref.SetPage(pn, page))
	case tfWrite:
		data := bytes.Repeat([]byte{c}, 1+int(c%16))
		agree("Write", s.fast.Write(addr, data), s.ref.Write(addr, data))
	case tfFlip:
		if f, r := s.fast.FlipBits(addr, c|1), s.ref.FlipBits(addr, c|1); f != r {
			t.Fatalf("%s: FlipBits fast %v, reference %v", step, f, r)
		}
	case tfSnapshot:
		if f, r := s.fast.SnapshotDirty(), s.ref.SnapshotDirty(); !slices.Equal(f, r) {
			t.Fatalf("%s: SnapshotDirty fast %v, reference %v", step, f, r)
		}
	case tfClearDirty:
		s.fast.ClearDirty()
		s.ref.ClearDirty()
	case tfFetch:
		var bf, br [maxInstLen]byte
		nf, errF := s.fast.fetch(addr, &bf)
		nr, errR := s.ref.fetchRef(addr, br[:])
		agree("fetch", errF, errR)
		if !bytes.Equal(bf[:nf], br[:nr]) {
			t.Fatalf("%s: fetch at %#x: fast %x, reference %x", step, addr, bf[:nf], br[:nr])
		}
	case tfReadU64:
		v, errF := s.fast.ReadU64(addr)
		var br [8]byte
		errR := s.ref.readGuestRef(addr, br[:])
		agree("ReadU64", errF, errR)
		if errF == nil && v != binary.LittleEndian.Uint64(br[:]) {
			t.Fatalf("%s: ReadU64 at %#x: fast %#x, reference %x", step, addr, v, br)
		}
	case tfWriteU64:
		v := uint64(a)<<56 | uint64(b)<<8 | uint64(c)
		var br [8]byte
		binary.LittleEndian.PutUint64(br[:], v)
		agree("WriteU64", s.fast.WriteU64(addr, v), s.ref.WriteGuest(addr, br[:]))
	case tfReadU8:
		v, errF := s.fast.readU8(addr)
		var br [1]byte
		errR := s.ref.readGuestRef(addr, br[:])
		agree("readU8", errF, errR)
		if errF == nil && v != br[0] {
			t.Fatalf("%s: readU8 at %#x: fast %#x, reference %#x", step, addr, v, br[0])
		}
	case tfWriteU8:
		agree("writeU8", s.fast.writeU8(addr, b^c), s.ref.WriteGuest(addr, []byte{b ^ c}))
	}
}

// compare fails unless both spaces hold the same state.
func (s *tlbPair) compare(t *testing.T, step tfStep) {
	t.Helper()
	f, r := s.fast, s.ref
	if r.tlb != nil {
		t.Fatalf("%s: the reference space built a TLB", step)
	}
	if fv, rv := f.VMAs(), r.VMAs(); !slices.Equal(fv, rv) {
		t.Fatalf("%s: VMAs differ: fast %v, reference %v", step, fv, rv)
	}
	fp, rp := f.PopulatedPages(), r.PopulatedPages()
	if !slices.Equal(fp, rp) {
		t.Fatalf("%s: populated pages differ: fast %v, reference %v", step, fp, rp)
	}
	for _, pn := range fp {
		if !bytes.Equal(f.PageDataUnsafe(pn), r.PageDataUnsafe(pn)) {
			t.Fatalf("%s: page %d bytes differ", step, pn)
		}
	}
	if fd, rd := f.DirtyPages(), r.DirtyPages(); !slices.Equal(fd, rd) {
		t.Fatalf("%s: dirty sets differ: fast %v, reference %v", step, fd, rd)
	}
	for pn := uint64(0); pn <= tfPages; pn++ {
		if fg, rg := f.TextGen(pn), r.TextGen(pn); fg != rg {
			t.Fatalf("%s: TextGen(%d): fast %d, reference %d", step, pn, fg, rg)
		}
	}
}
