package fleet

import (
	"reflect"
	"testing"

	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/criu"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/kernel"
)

// copyBinary deep-copies a binary, section bytes included.
func copyBinary(f *delf.File) *delf.File {
	c := *f
	c.Sections = make([]*delf.Section, len(f.Sections))
	for i, s := range f.Sections {
		sc := *s
		sc.Data = append([]byte(nil), s.Data...)
		c.Sections[i] = &sc
	}
	c.Symbols = append([]delf.Symbol(nil), f.Symbols...)
	c.Relocs = append([]delf.Reloc(nil), f.Relocs...)
	c.Needed = append([]string(nil), f.Needed...)
	return &c
}

// TestFleetLeavesDiskBinariesUnchanged: machines and their clones share
// the binaries on their disks, which is sound only because no code
// mutates a binary once it is built. A full cycle — disable with
// handler injection, enable, a fleet clone and its pristine restore,
// and a disk-checked Validate — must leave every binary deep-equal to
// a copy taken at boot.
func TestFleetLeavesDiskBinariesUnchanged(t *testing.T) {
	tpl := bootTemplate(t)
	p, err := tpl.m.Process(tpl.pid)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*delf.File{}
	for _, mod := range p.Modules() {
		bin, err := tpl.m.Binary(mod.Name)
		if err != nil {
			t.Fatal(err)
		}
		want[mod.Name] = copyBinary(bin)
	}
	if len(want) < 2 {
		t.Fatalf("disk holds %d binaries, want the executable and libc", len(want))
	}

	f, err := New(tpl.m, tpl.pid, Config{Replicas: 1, Workers: 1, Core: coreOpts(tpl)})
	if err != nil {
		t.Fatal(err)
	}
	r := f.Replicas()[0]
	if _, err := r.Cust.DisableBlocks("webdav-write", tpl.blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Cust.TrapHits(); err != nil {
		t.Fatalf("no handler injected: %v", err)
	}
	if _, err := r.Cust.EnableBlocks("webdav-write"); err != nil {
		t.Fatal(err)
	}
	out := ReplicaOutcome{Index: r.Index}
	f.restorePristine(&out)
	if out.Outcome != OutcomeRestored {
		t.Fatalf("pristine restore: %v (%v)", out.Outcome, out.Err)
	}
	set, err := criu.Dump(r.Machine, r.Cust.PID(), criu.DumpOpts{Tree: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(r.Machine); err != nil {
		t.Fatal(err)
	}

	for label, m := range map[string]*kernel.Machine{"template": tpl.m, "replica": r.Machine} {
		for name, w := range want {
			got, err := m.Binary(name)
			if err != nil {
				t.Fatalf("%s disk lost %s: %v", label, name, err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Errorf("%s disk binary %s changed during the cycle", label, name)
			}
		}
	}
}
