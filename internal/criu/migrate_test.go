package criu

import (
	"testing"

	"github.com/dynacut/dynacut/internal/kernel"
)

// TestMigrationToFreshMachine exercises CRIU's original purpose —
// live process migration: dump on machine A, ship the serialized
// images plus the binaries ("disk"), restore on machine B, and keep
// running. Code patches in the image must survive because the dump
// used ExecPages.
func TestMigrationToFreshMachine(t *testing.T) {
	src := kernel.NewMachine()
	exe := buildExe(t, "counter", counterSrc)
	p, err := src.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	src.Run(5000)
	counterSym, err := exe.Symbol("counter")
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Mem().ReadU64(counterSym.Value)
	if err != nil {
		t.Fatal(err)
	}

	set, err := Dump(src, p.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	blob := set.Marshal()

	// "Ship" images and binaries to the destination machine.
	dst := kernel.NewMachine()
	bin, err := src.Binary("counter")
	if err != nil {
		t.Fatal(err)
	}
	dst.AddBinary(bin)
	shipped, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := Restore(dst, shipped)
	if err != nil {
		t.Fatal(err)
	}
	rp := restored[0]
	after, err := rp.Mem().ReadU64(counterSym.Value)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("migrated counter = %d, want %d", after, before)
	}
	dst.Run(5000)
	later, _ := rp.Mem().ReadU64(counterSym.Value)
	if later <= after {
		t.Fatal("migrated process not running on the destination")
	}
	// The source's copy is independent.
	src.Run(1000)
	if p.Exited() {
		t.Fatal("source process died")
	}
}

// TestMigrationMissingBinaryFails: restoring file-backed memory
// without the binary on the destination disk must fail cleanly.
func TestMigrationMissingBinaryFails(t *testing.T) {
	src := kernel.NewMachine()
	exe := buildExe(t, "counter", counterSrc)
	p, err := src.Load(exe)
	if err != nil {
		t.Fatal(err)
	}
	src.Run(100)
	set, err := Dump(src, p.PID(), DumpOpts{}) // vanilla: code not in image
	if err != nil {
		t.Fatal(err)
	}
	dst := kernel.NewMachine() // empty disk
	if _, _, err := Restore(dst, set); err == nil {
		t.Fatal("restore without binaries succeeded")
	}
}
