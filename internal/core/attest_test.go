package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/obs"
)

// TestAttestCleanGuestAndRootEvolution: a freshly sealed oracle
// attests clean, the live root equals the oracle root, and committing
// a live patch moves the root (new page digests + new feature set)
// while staying clean.
func TestAttestCleanGuestAndRootEvolution(t *testing.T) {
	_, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9320}, Options{})

	att0, err := c.Attestation()
	if err != nil {
		t.Fatal(err)
	}
	if len(att0.Pages) == 0 {
		t.Fatal("oracle sealed with no text pages")
	}
	rep, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("pristine guest attests dirty: %+v", rep.Mismatches)
	}
	if rep.LiveRoot != att0.Root {
		t.Fatalf("live root %x != oracle root %x on a clean guest", rep.LiveRoot[:8], att0.Root[:8])
	}

	stats, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
	if err != nil || !stats.LivePatched {
		t.Fatalf("live disable: %v (stats %+v)", err, stats)
	}
	att1, err := c.Attestation()
	if err != nil {
		t.Fatal(err)
	}
	if att1.Root == att0.Root {
		t.Fatal("root did not move across a committed live patch")
	}
	if len(att1.Features) != 1 || att1.Features[0] != "webdav-write" {
		t.Fatalf("feature set = %v", att1.Features)
	}
	rep, err = c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.LiveRoot != att1.Root {
		t.Fatalf("patched guest attests dirty: %d mismatches, live %x want %x",
			len(rep.Mismatches), rep.LiveRoot[:8], att1.Root[:8])
	}
}

// TestAttestDetectsForeignBitflipAndRepairs: a silent one-bit flip in
// a text page is invisible to every loud channel but must show up as
// exactly one foreign mismatch — and the in-place repair must heal it
// with zero downtime (no kill, no restore, PID unchanged).
func TestAttestDetectsForeignBitflipAndRepairs(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9321}, Options{})
	_ = tb
	pidBefore := c.PID()
	p, err := c.machine.Process(c.pid)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the (idle) feature code, not the hot path.
	target := blocks[0].Addr
	if !p.Mem().FlipBits(target, 0x04) {
		t.Fatal("flip refused")
	}

	rep, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 1 || rep.Mismatches[0].Verdict != PageForeign {
		t.Fatalf("mismatches = %+v, want one foreign", rep.Mismatches)
	}
	if rep.Mismatches[0].Page != target/kernel.PageSize {
		t.Fatalf("mismatch page %#x, want %#x", rep.Mismatches[0].Page, target/kernel.PageSize)
	}

	// Repair heals it in place.
	rs, err := c.Repair(rep)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rs.Repaired != 1 {
		t.Fatalf("repaired = %d, want 1", rs.Repaired)
	}
	if c.PID() != pidBefore {
		t.Fatalf("repair changed root PID %d -> %d: a restore leaked in", pidBefore, c.PID())
	}
	rep2, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("still diverged after repair: %+v", rep2.Mismatches)
	}
}

// TestAttestClassifiesPriorVersionRepairable: text silently reverted
// to a version the oracle has seen (pristine bytes where a patch
// should be) is repairable, not foreign — the version chain knows it.
func TestAttestClassifiesPriorVersionRepairable(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9322}, Options{})
	_ = tb
	stats, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
	if err != nil || !stats.LivePatched {
		t.Fatalf("live disable: %v (stats %+v)", err, stats)
	}
	// Silently undo every patch byte: the page content returns to its
	// pristine (known prior) version.
	p, err := c.machine.Process(c.pid)
	if err != nil {
		t.Fatal(err)
	}
	for addr, orig := range c.saved {
		if err := p.Mem().Write(addr, orig); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("silent un-patch not detected")
	}
	for _, mm := range rep.Mismatches {
		if mm.Verdict != PageRepairable {
			t.Fatalf("mismatch %+v classified %v, want repairable", mm.Page, mm.Verdict)
		}
	}
	// Repairable pages heal like foreign ones.
	rs, err := c.Repair(rep)
	if err != nil || rs.Repaired != len(rep.Mismatches) {
		t.Fatalf("repair: %+v, %v", rs, err)
	}
	rep2, err := c.Attest()
	if err != nil || !rep2.Clean() {
		t.Fatalf("post-repair attest: %v, %+v", err, rep2.Mismatches)
	}
	// And the feature is enforced again.
	if got := tb.request(t, "PUT /f data\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after repair -> %q, want 403 (patch bytes not restored)", got)
	}
}

// TestAttestInjectedBitflipSiteIsSilent: the kernel.text.bitflip site
// corrupts without an error surfacing anywhere — only the sweep sees
// it — and the repair ladder then converges.
func TestAttestInjectedBitflipSiteIsSilent(t *testing.T) {
	tb, _, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9323}, Options{})
	inj := faultinject.New(7)
	inj.FailOnce(faultinject.SiteTextBitflip)
	tb.m.SetFaultHook(inj)
	defer tb.m.SetFaultHook(nil)

	rep, err := c.Attest()
	if err != nil {
		t.Fatalf("attest surfaced an error for a silent fault: %v", err)
	}
	if inj.Injected() == 0 {
		t.Fatal("armed bitflip never fired")
	}
	if rep.Clean() {
		t.Fatal("injected bitflip not detected by the sweep")
	}
	if _, err := c.Repair(rep); err != nil {
		t.Fatalf("repair: %v", err)
	}
	rep2, err := c.Attest()
	if err != nil || !rep2.Clean() {
		t.Fatalf("post-repair attest: %v, %+v", err, rep2.Mismatches)
	}
}

// TestRepairFaultUnwindsAndRetries: an injected repair fault fails the
// pass all-or-nothing; a later un-faulted pass heals.
func TestRepairFaultUnwindsAndRetries(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9324}, Options{})
	p, err := c.machine.Process(c.pid)
	if err != nil {
		t.Fatal(err)
	}
	p.Mem().FlipBits(blocks[0].Addr, 0x10)

	inj := faultinject.New(3)
	inj.FailOnce(faultinject.SiteAttestRepair)
	tb.m.SetFaultHook(inj)
	defer tb.m.SetFaultHook(nil)

	rep, err := c.Attest()
	if err != nil || rep.Clean() {
		t.Fatalf("attest: %v clean=%v", err, rep.Clean())
	}
	rs, err := c.Repair(rep)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("repair error = %v, want injected", err)
	}
	if rs.Repaired != 0 {
		t.Fatalf("failed repair reported %d repaired pages", rs.Repaired)
	}
	// The fault is spent; the retry heals.
	if _, err := c.Repair(rep); err != nil {
		t.Fatalf("retry repair: %v", err)
	}
	rep2, err := c.Attest()
	if err != nil || !rep2.Clean() {
		t.Fatalf("post-retry attest: %v, %+v", err, rep2.Mismatches)
	}
}

// TestRepairSurvivesRottenExpectedBlob: when the store blob for the
// expected digest itself has rotted, repair falls back to a prior
// version re-overlaid with the recorded patched bytes — Materialize
// the pristine blob, re-apply the deltas, verify.
func TestRepairSurvivesRottenExpectedBlob(t *testing.T) {
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9325}, Options{})
	stats, err := c.DisableBlocksLive("webdav-write", blocks, PolicyBlockEntry)
	if err != nil || !stats.LivePatched {
		t.Fatalf("live disable: %v (stats %+v)", err, stats)
	}
	p, err := c.machine.Process(c.pid)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one patched page's live bytes.
	p.Mem().FlipBits(blocks[0].Addr, 0x20)

	// Rot the expected blob on its first read: repair's primary source
	// dies, the pristine+overlay fallback must carry it.
	inj := faultinject.New(11)
	inj.FailOnce(faultinject.SiteStoreRot)
	c.attestStore().SetFaultHook(inj)
	defer c.attestStore().SetFaultHook(nil)
	_ = tb

	rep, err := c.Attest()
	if err != nil || rep.Clean() {
		t.Fatalf("attest: %v clean=%v", err, rep.Clean())
	}
	rs, err := c.Repair(rep)
	if err != nil {
		t.Fatalf("repair through rotten expected blob: %v", err)
	}
	if rs.Repaired == 0 {
		t.Fatal("nothing repaired")
	}
	if inj.Injected() == 0 {
		t.Fatal("armed rot fault never fired")
	}
	rep2, err := c.Attest()
	if err != nil || !rep2.Clean() {
		t.Fatalf("post-repair attest: %v, %+v", err, rep2.Mismatches)
	}
}

// TestAttestObserverSpans: every sweep and repair decision lands in
// the observer stream.
func TestAttestObserverSpans(t *testing.T) {
	obsv := obs.New(0)
	tb, blocks, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9326}, Options{Observer: obsv})
	_ = tb
	p, err := c.machine.Process(c.pid)
	if err != nil {
		t.Fatal(err)
	}
	p.Mem().FlipBits(blocks[0].Addr, 0x08)
	rep, err := c.Attest()
	if err != nil || rep.Clean() {
		t.Fatalf("attest: %v clean=%v", err, rep.Clean())
	}
	if _, err := c.Repair(rep); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"attest": false, "attest.mismatch": false, "attest.repair": false, "attest.repair.page": false}
	for _, ev := range obsv.Events() {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no %q event emitted", name)
		}
	}
}

// TestAttestLiveRootMatchesOracleAndReport: LiveRoot is the cheap
// probe a fleet sweep collects — it must equal the oracle root on a
// clean guest and the full report's LiveRoot always. The report's
// verdict counters and the verdict names ride along.
func TestAttestLiveRootMatchesOracleAndReport(t *testing.T) {
	tb, _, c := liveTestbed(t, webserv.Config{Name: "lighttpd", Port: 9327}, Options{})

	att, err := c.Attestation()
	if err != nil {
		t.Fatal(err)
	}
	lr, err := c.LiveRoot()
	if err != nil {
		t.Fatal(err)
	}
	if lr != att.Root {
		t.Fatalf("clean guest: LiveRoot %x != oracle root %x", lr[:8], att.Root[:8])
	}

	// Flip a text bit by hand: LiveRoot moves, the report classifies
	// the page foreign, and the counters agree.
	var pn uint64
	for p := range att.Pages {
		pn = p
		break
	}
	proc, err := tb.m.Process(c.PID())
	if err != nil {
		t.Fatal(err)
	}
	if !proc.Mem().FlipBits(pn*kernel.PageSize+9, 0x20) {
		t.Fatal("FlipBits refused the oracle page")
	}
	lr2, err := c.LiveRoot()
	if err != nil {
		t.Fatal(err)
	}
	if lr2 == att.Root {
		t.Fatal("LiveRoot blind to a flipped text bit")
	}
	rep, err := c.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveRoot != lr2 {
		t.Fatal("Attest's LiveRoot disagrees with LiveRoot()")
	}
	if rep.Foreign() != 1 || rep.Repairable() != 0 || rep.Clean() {
		t.Fatalf("verdict counters: foreign=%d repairable=%d clean=%v, want 1/0/false",
			rep.Foreign(), rep.Repairable(), rep.Clean())
	}
	for _, m := range rep.Mismatches {
		if m.Verdict.String() != "foreign" {
			t.Fatalf("verdict name = %q, want foreign", m.Verdict.String())
		}
	}
	if PageClean.String() != "clean" || PageRepairable.String() != "repairable" {
		t.Fatal("PageVerdict names wrong")
	}
}
