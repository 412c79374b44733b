package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
)

// textSnapshot reads every text page of every live target process.
func textSnapshot(t *testing.T, c *Customizer) map[int][]byte {
	t.Helper()
	out := map[int][]byte{}
	for _, p := range c.liveTargets() {
		var text []byte
		for _, pn := range p.Mem().ExecPages() {
			pg, err := p.Mem().Read(pn*kernel.PageSize, kernel.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			text = append(text, pg...)
		}
		out[p.PID()] = text
	}
	return out
}

func assertTextIdentical(t *testing.T, c *Customizer, want map[int][]byte, what string) {
	t.Helper()
	got := textSnapshot(t, c)
	if len(got) != len(want) {
		t.Fatalf("%s: %d live targets, want %d", what, len(got), len(want))
	}
	for pid, text := range want {
		if !bytes.Equal(got[pid], text) {
			t.Fatalf("%s: pid %d text differs from before the write", what, pid)
		}
	}
}

// TestLivePatchFaultAtKthWriteLeavesTextIdentical: a fault before the
// k-th in-place write of a live patch, for every k, unwinds the k-1
// writes already made. The text is byte-identical to before, and no
// bookkeeping moved.
func TestLivePatchFaultAtKthWriteLeavesTextIdentical(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9330}, Options{})
	blocks = c.FilterProtected(blocks)
	if len(blocks) < 2 {
		t.Fatalf("need >= 2 blocks for a partial write, got %d", len(blocks))
	}
	for k := 1; k <= len(blocks); k++ {
		before := textSnapshot(t, c)
		in := faultinject.New(int64(k))
		in.FailAt(faultinject.SiteLivePatchPatch, k)
		tb.m.SetFaultHook(in)
		_, reason, err := c.livePatch("webdav-write", blocks, PolicyWipeBlocks)
		tb.m.SetFaultHook(nil)
		if err != nil || !strings.Contains(reason, "patch fault") {
			t.Fatalf("k=%d: reason %q err %v, want a patch-fault fallback", k, reason, err)
		}
		assertTextIdentical(t, c, before, "live patch")
		if len(c.saved) != 0 || c.DisabledBlockCount() != 0 {
			t.Fatalf("k=%d: unwound patch left bookkeeping: saved %d disabled %d", k, len(c.saved), c.DisabledBlockCount())
		}
	}
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after unwound patches -> %q, want untouched 201", got)
	}
}

// TestRepairFaultAtKthWriteLeavesTextIdentical: the same property for
// attestation repair. Several diverged pages are repaired in one pass;
// a fault before the k-th page write unwinds the pages already
// repaired, so the text is byte-identical to the diverged text.
func TestRepairFaultAtKthWriteLeavesTextIdentical(t *testing.T) {
	tb, _, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9331}, Options{})
	p, err := tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	// Flip the last byte of three text pages: foreign divergence on
	// three pages, one write each.
	pns := c.oraclePageNumbers()
	if len(pns) < 3 {
		t.Fatalf("need >= 3 text pages, got %d", len(pns))
	}
	for _, pn := range pns[:3] {
		if !p.Mem().FlipBits(pn*kernel.PageSize+kernel.PageSize-1, 0x01) {
			t.Fatalf("flip on page %#x refused", pn)
		}
	}
	rep, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 3 {
		t.Fatalf("mismatches = %d, want 3", len(rep.Mismatches))
	}
	for k := 1; k <= len(rep.Mismatches); k++ {
		before := textSnapshot(t, c)
		in := faultinject.New(int64(k))
		in.FailAt(faultinject.SiteAttestRepair, k)
		tb.m.SetFaultHook(in)
		rs, err := c.Repair(rep)
		tb.m.SetFaultHook(nil)
		if !errors.Is(err, faultinject.ErrInjected) || rs.Repaired != 0 {
			t.Fatalf("k=%d: repair = %+v, %v; want an injected all-or-nothing failure", k, rs, err)
		}
		assertTextIdentical(t, c, before, "repair")
	}
	if _, err := c.Repair(rep); err != nil {
		t.Fatalf("un-faulted repair: %v", err)
	}
	if rep2, err := c.Attest(); err != nil || !rep2.Clean() {
		t.Fatalf("post-repair attest: %v", err)
	}
}

// TestRepairAndLivePatchShareQuiesceRule: both in-place writers wait
// for the same condition and count rounds the same way. A parked
// guest whose stack holds a return address into the span can never
// pop it, so the shared quiesce step gives up after the one round
// that found every process blocked, and neither path writes a byte.
func TestRepairAndLivePatchShareQuiesceRule(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9332}, Options{})
	root, err := tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	mem := root.Mem()
	vma, ok := mem.VMAAt(root.Reg(15 /* isa.SP */))
	if !ok {
		t.Fatal("root has no stack VMA")
	}
	// Plant a return address into the first feature block at the top
	// of the stack, where a parked server never writes.
	target := blocks[0].Addr
	slot := vma.End - 8
	orig, err := mem.ReadU64(slot)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteU64(slot, target); err != nil {
		t.Fatal(err)
	}
	defer mem.WriteU64(slot, orig)
	before := textSnapshot(t, c)

	stats, reason, err := c.livePatch("webdav-write", blocks[:1], PolicyBlockEntry)
	if err != nil || !strings.Contains(reason, "guest parked") || stats.QuiesceRounds != 1 {
		t.Fatalf("live patch under the planted frame: reason %q rounds %d err %v; want parked after 1 round",
			reason, stats.QuiesceRounds, err)
	}
	assertTextIdentical(t, c, before, "parked live patch")

	if !mem.FlipBits(target, 0x01) {
		t.Fatal("flip refused")
	}
	diverged := textSnapshot(t, c)
	rep, err := c.Attest()
	if err != nil || len(rep.Mismatches) != 1 {
		t.Fatalf("attest: %v, %d mismatches", err, len(rep.Mismatches))
	}
	rs, err := c.Repair(rep)
	if err == nil || !strings.Contains(err.Error(), "guest parked") || rs.Rounds != 1 || rs.Repaired != 0 {
		t.Fatalf("repair under the planted frame: %+v, %v; want parked after 1 round", rs, err)
	}
	assertTextIdentical(t, c, diverged, "parked repair")
}
