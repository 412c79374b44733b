package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
)

// tableEntries returns every process-table entry of m, exited ones
// included. PIDs only grow, so the highest live PID bounds the scan.
func tableEntries(m *kernel.Machine) []*kernel.Process {
	maxPID := 0
	for _, p := range m.Processes() {
		maxPID = max(maxPID, p.PID())
	}
	var out []*kernel.Process
	for pid := 1; pid <= maxPID; pid++ {
		if p, err := m.Process(pid); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// livePIDs returns the PIDs of m's live processes.
func livePIDs(m *kernel.Machine) []int {
	var out []int
	for _, p := range m.Processes() {
		out = append(out, p.PID())
	}
	return out
}

// assertReaped checks that the table holds exactly want live
// processes and nothing else, and that none of gone resolves.
func assertReaped(t *testing.T, m *kernel.Machine, want int, gone []int) {
	t.Helper()
	entries := tableEntries(m)
	for _, p := range entries {
		if p.Exited() {
			t.Errorf("pid %d exited but is still in the table", p.PID())
		}
	}
	if len(entries) != want {
		t.Errorf("table holds %d processes, want %d", len(entries), want)
	}
	for _, pid := range gone {
		if _, err := m.Process(pid); !errors.Is(err, kernel.ErrNoProcess) {
			t.Errorf("old pid %d: err = %v, want ErrNoProcess", pid, err)
		}
	}
}

// TestReapAfterToggle: every commit removes the tree it replaced, so a
// disable/enable round leaves only the live guest in the table — for a
// single process and for a master with two workers.
func TestReapAfterToggle(t *testing.T) {
	for _, tc := range []struct {
		cfg   webserv.Config
		procs int
	}{
		{webserv.Config{Name: "lighttpd", Port: 9400}, 1},
		{webserv.Config{Name: "nginx", Port: 9401, Workers: 2}, 3},
	} {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			tb := newTestbed(t, tc.cfg)
			blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
			c, err := New(tb.m, tb.proc.PID(), Options{Tree: tc.procs > 1, RedirectTo: tb.errPathAddr(t)})
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []string{"disable", "enable"} {
				old := livePIDs(tb.m)
				if step == "disable" {
					_, err = c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
				} else {
					_, err = c.EnableBlocks("webdav-write")
				}
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				assertReaped(t, tb.m, tc.procs, old)
			}
			tb.assertServing(t)
		})
	}
}

// TestReapAfterHealthRollback: a failed health check removes the
// unhealthy restored tree before the rollback, and the commit point
// removed the originals, so only the restored pristine tree is left.
func TestReapAfterHealthRollback(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "nginx", Port: 9402, Workers: 2})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	c, err := New(tb.m, tb.proc.PID(), Options{
		Tree:        true,
		RedirectTo:  tb.errPathAddr(t),
		HealthCheck: func(*kernel.Machine, int) error { return fmt.Errorf("canary refused") },
	})
	if err != nil {
		t.Fatal(err)
	}
	old := livePIDs(tb.m)
	_, err = c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
	if !errors.Is(err, ErrRolledBack) {
		t.Fatalf("err = %v, want ErrRolledBack", err)
	}
	assertReaped(t, tb.m, 3, old)
	tb.assertServing(t)
}

// TestReapAfterRestoreFaultRollback: a restore that fails on its third
// process unwinds the two it made, and the rollback restores the
// pristine tree into a table that holds nothing else.
func TestReapAfterRestoreFaultRollback(t *testing.T) {
	tb := newTestbed(t, webserv.Config{Name: "nginx", Port: 9403, Workers: 2})
	blocks := tb.profileFeatures(t, wantedReqs, undesiredReqs)
	in := faultinject.New(1)
	in.FailTransient(faultinject.SiteRestoreProc, 3, 1)
	tb.m.SetFaultHook(in)
	defer tb.m.SetFaultHook(nil)
	c, err := New(tb.m, tb.proc.PID(), Options{Tree: true, RedirectTo: tb.errPathAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	old := livePIDs(tb.m)
	_, err = c.DisableBlocks("webdav-write", blocks, PolicyBlockEntry)
	if !errors.Is(err, ErrRolledBack) || !errors.Is(err, ErrRestoreFailed) {
		t.Fatalf("err = %v, want a rolled-back restore failure", err)
	}
	assertReaped(t, tb.m, 3, old)
	tb.assertServing(t)
}
