package kernel

import (
	"bytes"
	"errors"
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
)

// Regression tests for the software TLB's invalidation edges. Each
// one warms the TLB on the page first, so a missing invalidation would
// serve the stale entry.

func rwxVMA(start, end uint64) VMA {
	return VMA{Start: start, End: end, Perm: delf.PermR | delf.PermW | delf.PermX, Name: "test", Anon: true}
}

// warmTLB populates the page at addr and resolves it into the TLB.
func warmTLB(t *testing.T, m *Memory, addr uint64) {
	t.Helper()
	if err := m.Write(addr, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadU64(addr); err != nil {
		t.Fatal(err)
	}
	if e := m.tlb[(addr/PageSize)%tlbEntries]; e.page == nil || e.pn != addr/PageSize {
		t.Fatalf("page %#x not in the TLB after a read", addr/PageSize)
	}
}

func TestTLBCloneCoWWritesStayOnTheirSide(t *testing.T) {
	const a = 0x1008
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x3000)); err != nil {
		t.Fatal(err)
	}
	warmTLB(t, m, a)
	if err := m.WriteU64(a, 1); err != nil { // the entry is private now
		t.Fatal(err)
	}
	c := m.CloneCoW()

	if err := m.WriteU64(a, 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.ReadU64(a); v != 1 {
		t.Fatalf("source write leaked into the clone: clone reads %d, want 1", v)
	}
	if err := c.WriteU64(a, 3); err != nil { // c's entry was warmed by its read
		t.Fatal(err)
	}
	if v, _ := m.ReadU64(a); v != 2 {
		t.Fatalf("clone write leaked into the source: source reads %d, want 2", v)
	}
	if v, _ := c.ReadU64(a); v != 3 {
		t.Fatalf("clone reads %d, want 3", v)
	}
	// Byte stores take the same path.
	if err := m.writeU8(a+8, 0xAA); err != nil {
		t.Fatal(err)
	}
	if b, _ := c.readU8(a + 8); b != 0 {
		t.Fatalf("byte store leaked into the clone: %#x", b)
	}
}

func TestTLBProtectDroppingXFaultsNextFetch(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwxVMA(0x1000, 0x2000)); err != nil {
		t.Fatal(err)
	}
	warmTLB(t, m, 0x1000)
	var buf [maxInstLen]byte
	if _, err := m.fetch(0x1000, &buf); err != nil {
		t.Fatalf("warm fetch: %v", err)
	}
	if err := m.Protect(0x1000, 0x2000, delf.PermR|delf.PermW); err != nil {
		t.Fatal(err)
	}
	if _, err := m.fetch(0x1000, &buf); !errors.Is(err, ErrPerm) {
		t.Fatalf("fetch after dropping X: err = %v, want ErrPerm", err)
	}
}

func TestTLBProtectDroppingWFaultsNextStore(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x2000)); err != nil {
		t.Fatal(err)
	}
	warmTLB(t, m, 0x1000)
	if err := m.WriteU64(0x1000, 7); err != nil {
		t.Fatalf("warm store: %v", err)
	}
	if err := m.Protect(0x1000, 0x2000, delf.PermR); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteU64(0x1000, 8); !errors.Is(err, ErrPerm) {
		t.Fatalf("store after dropping W: err = %v, want ErrPerm", err)
	}
	if err := m.writeU8(0x1000, 8); !errors.Is(err, ErrPerm) {
		t.Fatalf("byte store after dropping W: err = %v, want ErrPerm", err)
	}
	if v, _ := m.ReadU64(0x1000); v != 7 {
		t.Fatalf("refused store changed memory: %d", v)
	}
}

func TestTLBUnmapThenMapReadsZeros(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x2000)); err != nil {
		t.Fatal(err)
	}
	warmTLB(t, m, 0x1000)
	if err := m.WriteU64(0x1000, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(0x1000, 0x2000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadU64(0x1000); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("read of unmapped page: err = %v, want ErrUnmapped", err)
	}
	if err := m.Map(rwVMA(0x1000, 0x2000)); err != nil {
		t.Fatal(err)
	}
	if v, err := m.ReadU64(0x1000); err != nil || v != 0 {
		t.Fatalf("remapped page reads %#x, %v; want 0", v, err)
	}
}

func TestTLBSetPageVisibleToNextLoad(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x2000)); err != nil {
		t.Fatal(err)
	}
	warmTLB(t, m, 0x1000)
	page := make([]byte, PageSize)
	page[16] = 0x5A
	if err := m.SetPage(1, page); err != nil { // what restore does
		t.Fatal(err)
	}
	if b, err := m.readU8(0x1010); err != nil || b != 0x5A {
		t.Fatalf("load after SetPage = %#x, %v; want 0x5a", b, err)
	}
	if err := m.WriteU64(0x1000, 9); err != nil {
		t.Fatal(err)
	}
	if got := m.PageDataUnsafe(1)[0]; got != 9 {
		t.Fatalf("store after SetPage went to the old backing: page byte %d", got)
	}
}

// flipLoop is a guest whose loop body `mov r3, 7` a flip of bit 1 of
// the immediate turns into `mov r3, 5`.
const flipLoop = `
.text
.global _start
_start:
loop:
	mov r3, 7
	jmp loop
`

func TestTLBFlipBitsSeenByNextInterpretedFetch(t *testing.T) {
	exe := buildExe(t, "test", flipLoop)
	loop, err := exe.Symbol("loop")
	if err != nil {
		t.Fatal(err)
	}
	load := func() *Machine {
		m := NewMachine()
		if _, err := m.Load(exe); err != nil {
			t.Fatal(err)
		}
		return m
	}
	// A freshly loaded guest's pages are private; a clone's are
	// CoW-shared, so there the flip also replaces the page's backing.
	for name, m := range map[string]*Machine{"private": load(), "cow-clone": load().Clone()} {
		t.Run(name, func(t *testing.T) {
			p := m.Processes()[0]
			m.Run(1000)
			if p.Reg(3) != 7 {
				t.Fatalf("r3 = %d before the flip", p.Reg(3))
			}
			if !p.Mem().FlipBits(loop.Value+2, 0x02) {
				t.Fatal("FlipBits refused")
			}
			m.Run(1000)
			if p.Reg(3) != 5 {
				t.Fatalf("r3 = %d after the flip, want 5: the fetch used a stale page", p.Reg(3))
			}
		})
	}
}

func TestTLBStoreAfterSnapshotDirtyRedirties(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x3000)); err != nil {
		t.Fatal(err)
	}
	warmTLB(t, m, 0x1000)
	warmTLB(t, m, 0x2000)
	m.SnapshotDirty()
	if err := m.WriteU64(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.writeU8(0x2000, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.SnapshotDirty(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("dirty after fast stores = %v, want [1 2]", got)
	}
	m.ClearDirty()
	if err := m.WriteU64(0x1000, 2); err != nil {
		t.Fatal(err)
	}
	if got := m.DirtyPages(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("dirty after ClearDirty and a store = %v, want [1]", got)
	}
}

func TestTLBReleasedWhenProcessTerminates(t *testing.T) {
	exe := buildExe(t, "test", `
.text
.global _start
_start:
	push r1
	pop r1
	mov r0, 1
	mov r1, 0
	syscall
`)
	m := NewMachine()
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(2)
	if p.mem.tlb == nil {
		t.Fatal("a running process has no TLB")
	}
	m.Run(100)
	if !p.Exited() || p.mem.tlb != nil {
		t.Fatalf("exited=%v, TLB held=%v; a terminated process must hold no TLB", p.Exited(), p.mem.tlb != nil)
	}

	// Killed processes release theirs too.
	q, err := m.Load(buildExe(t, "spin", flipLoop))
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100)
	if q.mem.tlb == nil {
		t.Fatal("spinning process has no TLB")
	}
	if err := m.Kill(q.PID()); err != nil {
		t.Fatal(err)
	}
	if q.mem.tlb != nil {
		t.Fatal("killed process still holds its TLB")
	}
}

func TestTLBPageCrossingTakesReferencePath(t *testing.T) {
	m := newMemory()
	if err := m.Map(rwVMA(0x1000, 0x3000)); err != nil {
		t.Fatal(err)
	}
	warmTLB(t, m, 0x1000)
	warmTLB(t, m, 0x2000)
	if err := m.WriteU64(0x1ffc, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(0x1ffc, 8)
	if err != nil || !bytes.Equal(got, []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}) {
		t.Fatalf("page-crossing store wrote %x, %v", got, err)
	}
	if v, err := m.ReadU64(0x1ffc); err != nil || v != 0x1122334455667788 {
		t.Fatalf("page-crossing load = %#x, %v", v, err)
	}
}

// accessLoop exercises every guest access the fast path serves: word
// and byte loads and stores, push, pop, call and ret.
const accessLoop = `
.text
.global _start
_start:
	mov r8, =buf
loop:
	mov r1, 0x1234
	store [r8], r1
	load r2, [r8]
	storeb [r8+8], r2
	loadb r3, [r8+8]
	push r2
	pop r4
	call fn
	jmp loop
fn:
	ret
.data
buf: .space 64
`

func TestTLBGuestAccessLoopAllocatesNothing(t *testing.T) {
	exe := buildExe(t, "test", accessLoop)
	for _, mode := range []ExecMode{ModeInterpret, ModeTranslate} {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewMachine()
			m.SetExecMode(mode)
			p, err := m.Load(exe)
			if err != nil {
				t.Fatal(err)
			}
			m.Run(10_000) // warm: pages populated, TLB and cache filled
			const insts = 6400
			allocs := testing.AllocsPerRun(20, func() { m.Run(insts) })
			if p.Exited() {
				t.Fatalf("guest died: signal %v", p.KilledBy())
			}
			if allocs != 0 {
				t.Fatalf("%v allocations per %d instructions, want 0", allocs, insts)
			}
		})
	}
}

func TestTLBWriteSyscallStagesWithoutAllocating(t *testing.T) {
	exe := buildExe(t, "test", `
.text
.global _start
_start:
loop:
	lea r2, msg
	mov r0, 2       ; write
	mov r1, 1       ; stdout
	mov r3, 8
	syscall
	jmp loop
.rodata
msg: .ascii "8 bytes\n"
`)
	m := NewMachine()
	p, err := m.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100)
	p.stdout = make([]byte, 0, 1<<20) // room for every write below
	allocs := testing.AllocsPerRun(20, func() { m.Run(600) })
	if allocs != 0 {
		t.Fatalf("%v allocations per 100 write syscalls, want 0", allocs)
	}
	if len(p.stdout) == 0 || !bytes.HasPrefix(p.stdout, []byte("8 bytes\n")) {
		t.Fatalf("stdout = %q", p.stdout[:min(len(p.stdout), 32)])
	}
}
