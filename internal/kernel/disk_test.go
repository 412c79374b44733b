package kernel

import (
	"errors"
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
)

func TestDiskReadWrite(t *testing.T) {
	m := NewMachine()
	if _, err := m.Binary("missing"); !errors.Is(err, ErrNoFile) {
		t.Errorf("Binary(missing) err = %v", err)
	}
	bin := &delf.File{Name: "bin", Type: delf.TypeExec}
	m.AddBinary(bin)
	got, err := m.Binary("bin")
	if err != nil || got != bin {
		t.Fatalf("Binary = %p, %v; want %p", got, err, bin)
	}
	// A later binary of the same name replaces the earlier one.
	bin2 := &delf.File{Name: "bin", Type: delf.TypeExec}
	m.AddBinary(bin2)
	if got, _ := m.Binary("bin"); got != bin2 {
		t.Error("AddBinary did not replace the binary of the same name")
	}
}

func TestProcessLookupErrors(t *testing.T) {
	m := NewMachine()
	if _, err := m.Process(42); !errors.Is(err, ErrNoProcess) {
		t.Errorf("Process(42) err = %v", err)
	}
	if err := m.Kill(42); !errors.Is(err, ErrNoProcess) {
		t.Errorf("Kill(42) err = %v", err)
	}
	if got := m.Children(42); len(got) != 0 {
		t.Errorf("Children = %v", got)
	}
}

func TestModuleAt(t *testing.T) {
	p := newProcess(1, 0, "x")
	p.AddModule(Module{Name: "a", Lo: 0x1000, Hi: 0x2000})
	p.AddModule(Module{Name: "b", Lo: 0x3000, Hi: 0x4000})
	if mod, ok := p.ModuleAt(0x1800); !ok || mod.Name != "a" {
		t.Errorf("ModuleAt(a) = %v %v", mod, ok)
	}
	if _, ok := p.ModuleAt(0x2800); ok {
		t.Error("ModuleAt(hole) hit")
	}
	mods := p.Modules()
	if len(mods) != 2 {
		t.Errorf("Modules = %v", mods)
	}
	// Returned slice is a copy.
	mods[0].Name = "mutated"
	if got, _ := p.ModuleAt(0x1000); got.Name != "a" {
		t.Error("Modules exposed internal state")
	}
}

func TestSyscallFilterAccessors(t *testing.T) {
	p := newProcess(1, 0, "x")
	if p.SyscallFilter() != nil {
		t.Error("fresh process has a filter")
	}
	p.SetSyscallFilter([]uint64{5, 1, 3})
	got := p.SyscallFilter()
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("filter = %v (want sorted)", got)
	}
	p.SetSyscallFilter(nil)
	if p.SyscallFilter() != nil {
		t.Error("filter not cleared")
	}
	// Empty filter is distinct from none.
	p.SetSyscallFilter([]uint64{})
	if p.SyscallFilter() == nil {
		t.Error("deny-all filter reported as none")
	}
}
