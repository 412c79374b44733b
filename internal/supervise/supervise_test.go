package supervise

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/dynacut/dynacut/internal/apps/webserv"
	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/coverage"
	"github.com/dynacut/dynacut/internal/faultinject"
	"github.com/dynacut/dynacut/internal/kernel"
	"github.com/dynacut/dynacut/internal/obs"
	"github.com/dynacut/dynacut/internal/trace"
)

// bed is a booted, traced web-server guest (the same harness shape as
// internal/core's testbed, rebuilt here to keep the package test
// surface self-contained).
type bed struct {
	m       *kernel.Machine
	app     *webserv.App
	root    int
	col     *trace.Collector
	initLog *trace.Log
}

func boot(t *testing.T, cfg webserv.Config) *bed {
	t.Helper()
	app, err := webserv.Build(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := kernel.NewMachine()
	col := trace.NewCollector(app.Config.Name)
	m.SetTracer(col)
	p, err := m.Load(app.Exe, app.Libc)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	b := &bed{m: m, app: app, root: p.PID(), col: col}
	m.SetNudgeFunc(func(pid int, arg uint64) {
		if b.initLog == nil {
			pr, err := m.Process(pid)
			if err != nil {
				return
			}
			b.initLog = col.SnapshotAndReset(pr.Modules(), "init")
		}
	})
	if !m.RunUntil(func() bool { return b.initLog != nil }, 10_000_000) {
		t.Fatalf("boot: nudge never fired; exited=%v killed=%v", p.Exited(), p.KilledBy())
	}
	m.Run(10000)
	return b
}

func (b *bed) request(t *testing.T, req string) string {
	t.Helper()
	conn, err := b.m.Dial(b.app.Config.Port)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	b.m.RunUntil(func() bool { return len(conn.ReadAllPeek()) > 0 || conn.Closed() }, 2_000_000)
	b.m.Run(20000)
	return string(conn.ReadAll())
}

func (b *bed) profile(t *testing.T, wanted, undesired []string) []coverage.AbsBlock {
	t.Helper()
	b.col.Reset()
	for _, r := range wanted {
		b.request(t, r)
	}
	covW := b.snapshot(t, "wanted")
	for _, r := range undesired {
		b.request(t, r)
	}
	covU := b.snapshot(t, "undesired")
	return core.IdentifyFeatureBlocks(covU, covW, b.app.Config.Name)
}

func (b *bed) snapshot(t *testing.T, phase string) *coverage.Graph {
	t.Helper()
	procs := b.m.Processes()
	if len(procs) == 0 {
		t.Fatal("no live processes")
	}
	return coverage.FromLog(b.col.SnapshotAndReset(procs[0].Modules(), phase))
}

func (b *bed) errPath(t *testing.T) uint64 {
	t.Helper()
	sym, err := b.app.Exe.Symbol("resp_403")
	if err != nil {
		t.Fatal(err)
	}
	return sym.Value
}

func (b *bed) assertGET(t *testing.T) {
	t.Helper()
	if got := b.request(t, "GET /\n"); !strings.Contains(got, "200") {
		t.Fatalf("GET -> %q, want 200", got)
	}
}

// attachManual attaches sup and unhooks the tick watchdog, so the test
// drives Supervisor.Step by hand, deterministically.
func attachManual(t *testing.T, b *bed, sup *Supervisor) {
	t.Helper()
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	b.m.SetTickWatchdog(0, nil)
}

// canary returns an end-to-end probe against the bed's server.
func (b *bed) canary() func() error {
	return func() error {
		conn, err := b.m.Dial(b.app.Config.Port)
		if err != nil {
			return err
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("GET /\n")); err != nil {
			return err
		}
		if !b.m.RunUntil(func() bool { return len(conn.ReadAllPeek()) > 0 || conn.Closed() }, 2_000_000) {
			return errors.New("canary: no response")
		}
		b.m.Run(20000)
		if got := string(conn.ReadAll()); !strings.Contains(got, "200") {
			return fmt.Errorf("canary: got %q", got)
		}
		return nil
	}
}

// TestSupervisorAdoptsAndStrikes: a falsely-removed feature self-heals
// in-guest (§3.2.3); the supervisor's next step adopts the reverted
// addresses, clears the guest log, and charges the owning feature's
// breaker.
func TestSupervisorAdoptsAndStrikes(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9200})
	blocks := b.profile(t, []string{"GET /\n", "HEAD /\n"}, []string{"POST /\n"})
	if len(blocks) == 0 {
		t.Fatal("no blocks identified")
	}
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t), Verifier: true})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{})
	attachManual(t, b, sup)
	if _, err := sup.DisableFeature("post", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	before := cust.DisabledBlockCount()

	// The misclassified POST self-heals under the verifier.
	if got := b.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST under verifier -> %q, want 200", got)
	}
	if fl, err := cust.FalseRemovals(); err != nil || len(fl) == 0 {
		t.Fatalf("no false removals logged (err=%v)", err)
	}

	sup.Step(b.m.Clock())

	if fl, err := cust.FalseRemovals(); err != nil || len(fl) != 0 {
		t.Fatalf("false-removal log not adopted: %d entries (err=%v)", len(fl), err)
	}
	if after := cust.DisabledBlockCount(); after >= before {
		t.Errorf("disabled count %d -> %d, want a drop from adoption", before, after)
	}
	br, ok := sup.Status().Breakers["post"]
	if !ok || br.Strikes == 0 {
		t.Errorf("adoption did not strike the owning feature: %+v (ok=%v)", br, ok)
	}
	b.assertGET(t)
}

// TestBreakerOpensQuarantinesAndRecloses walks the full circuit:
// canary failures strike the most recent feature until its breaker
// opens at exactly breakerThreshold strikes; DisableFeature is refused during probation, admitted as a
// half-open trial after it, closed after a calm trial — and the next
// trip doubles the probation.
func TestBreakerOpensQuarantinesAndRecloses(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9201})
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	fail := false
	probe := func() error {
		if fail {
			return errors.New("synthetic canary failure")
		}
		return nil
	}
	sup := New(b.m, cust, Config{Canary: probe})
	attachManual(t, b, sup)
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	// step advances the clock past the longest canary backoff, so every
	// step runs the probe.
	step := func() {
		b.m.AdvanceClock(canaryBackoffMax)
		sup.Step(b.m.Clock())
	}
	breaker := func() Breaker { return sup.Status().Breakers["webdav"] }

	// breakerThreshold failing canaries open the breaker, and not one
	// fewer.
	fail = true
	for i := 1; i < breakerThreshold; i++ {
		step()
		if br := breaker(); br.State != BreakerClosed || br.Strikes != i {
			t.Fatalf("breaker after %d strikes: %+v, want closed", i, br)
		}
	}
	step()
	br := breaker()
	if br.State != BreakerOpen || br.Trips != 1 {
		t.Fatalf("breaker after %d strikes: %+v, want open/1 trip", breakerThreshold, br)
	}
	if br.Probation != probation {
		t.Fatalf("first-trip probation %d, want %d", br.Probation, probation)
	}

	// Quarantined while probation runs.
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("DisableFeature under probation: err=%v, want ErrQuarantined", err)
	}

	// Past probation the breaker half-opens; a calm trial closes it.
	fail = false
	b.m.AdvanceClock(probation)
	sup.Step(b.m.Clock())
	if br = breaker(); br.State != BreakerHalfOpen {
		t.Fatalf("breaker after probation: %v, want half-open", br.State)
	}
	b.m.AdvanceClock(calmWindow)
	sup.Step(b.m.Clock())
	if br = breaker(); br.State != BreakerClosed {
		t.Fatalf("breaker after calm trial: %v, want closed", br.State)
	}

	// The next trip doubles the probation (bounded exponential).
	fail = true
	for i := 0; i < breakerThreshold; i++ {
		step()
	}
	br = breaker()
	if br.State != BreakerOpen || br.Trips != 2 {
		t.Fatalf("breaker after retrip: %+v, want open/2 trips", br)
	}
	if br.Probation != 2*probation {
		t.Errorf("second-trip probation %d, want doubled %d", br.Probation, 2*probation)
	}
	b.assertGET(t)
}

// TestTrapStormReenablesOffendingFeature: hammering a blocked feature
// past the storm threshold makes the ladder force re-enable it (rung
// 2) and trip its breaker — the guest converges to full service.
func TestTrapStormReenablesOffendingFeature(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9202})
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{})
	attachManual(t, b, sup)
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stormThreshold; i++ {
		if got := b.request(t, "PUT /f x\n"); !strings.Contains(got, "403") {
			t.Fatalf("blocked PUT -> %q, want 403", got)
		}
	}

	sup.Step(b.m.Clock())

	if lvl := sup.Status().Level; lvl != 2 {
		t.Fatalf("ladder level %d, want 2 (re-enable)", lvl)
	}
	if br := sup.Status().Breakers["webdav"]; br.State != BreakerOpen {
		t.Fatalf("offending feature's breaker %v, want open", br.State)
	}
	if n := cust.DisabledBlockCount(); n != 0 {
		t.Fatalf("%d blocks still disabled after forced re-enable", n)
	}
	if got := b.request(t, "PUT /f x\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after forced re-enable -> %q, want 201", got)
	}
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("re-disable of tripped feature: err=%v, want ErrQuarantined", err)
	}
	b.assertGET(t)
}

// TestStormLadderFallsBackToPristine: with re-enable and disarm both
// hard-faulted, a storm walks the ladder to its final rung — the
// last-good pristine images are restored, patching is disarmed, and
// Rearm brings the supervisor back into service.
func TestStormLadderFallsBackToPristine(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9203})
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	in := faultinject.New(7)
	in.FailTransient(faultinject.SiteSuperviseReenable, 1, -1) // hard faults
	in.FailTransient(faultinject.SiteSuperviseDisarm, 1, -1)
	b.m.SetFaultHook(in)
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{})
	attachManual(t, b, sup)
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stormThreshold; i++ {
		b.request(t, "PUT /f x\n")
	}

	sup.Step(b.m.Clock())

	if !sup.Status().Restored || !sup.Status().Disarmed {
		t.Fatalf("ladder end state restored=%v disarmed=%v, want both", sup.Status().Restored, sup.Status().Disarmed)
	}
	if err := sup.Status().Err; err != nil {
		t.Fatalf("guest lost: %v", err)
	}
	// Pristine fallback: everything re-enabled, full service.
	if got := b.request(t, "PUT /f x\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after pristine restore -> %q, want 201", got)
	}
	b.assertGET(t)
	if _, err := sup.DisableFeature("other", blocks, core.PolicyBlockEntry); !errors.Is(err, ErrDisarmed) {
		t.Fatalf("DisableFeature while disarmed: err=%v, want ErrDisarmed", err)
	}

	// Rearm resumes supervised patching from the new last-good state.
	if err := sup.Rearm(); err != nil {
		t.Fatalf("rearm: %v", err)
	}
	if _, err := sup.DisableFeature("webdav2", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatalf("disable after rearm: %v", err)
	}
	if got := b.request(t, "PUT /f x\n"); !strings.Contains(got, "403") {
		t.Fatalf("PUT after rearmed disable -> %q, want 403", got)
	}
	b.assertGET(t)
}

// stormBed boots a redirect-mode guest with WebDAV disabled through a
// hand-driven supervisor: every blocked PUT is exactly one trap.
func stormBed(t *testing.T, port uint16) (*bed, *Supervisor) {
	t.Helper()
	b := boot(t, webserv.Config{Name: "lighttpd", Port: port})
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{})
	attachManual(t, b, sup)
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	return b, sup
}

// trapAt sends one blocked PUT, then steps the supervisor at virtual
// instant at (or at once, if the request ran the clock past it).
func trapAt(t *testing.T, b *bed, sup *Supervisor, at uint64) {
	t.Helper()
	if got := b.request(t, "PUT /f x\n"); !strings.Contains(got, "403") {
		t.Fatalf("blocked PUT -> %q, want 403", got)
	}
	if now := b.m.Clock(); at > now {
		b.m.AdvanceClock(at - now)
	}
	sup.Step(b.m.Clock())
}

// TestStormThresholdBoundary: stormThreshold-1 traps inside the storm
// window leave the ladder at rest; the stormThreshold-th escalates it.
func TestStormThresholdBoundary(t *testing.T) {
	b, sup := stormBed(t, 9205)
	for i := 1; i < stormThreshold; i++ {
		trapAt(t, b, sup, 0)
		if st := sup.Status(); st.Level != 0 || st.WindowHits != uint64(i) {
			t.Fatalf("after %d traps: level %d, window hits %d; want level 0, %d hits",
				i, st.Level, st.WindowHits, i)
		}
	}
	trapAt(t, b, sup, 0)
	if st := sup.Status(); st.Level != 2 || st.Breakers["webdav"].State != BreakerOpen {
		t.Fatalf("after %d traps: level %d, breaker %v; want the re-enable rung (2) and an open breaker",
			stormThreshold, st.Level, st.Breakers["webdav"].State)
	}
}

// TestStormWindowBoundary: stormThreshold traps whose first and last
// polls lie exactly stormWindow apart still make a storm; spread one
// tick per gap wider, the first has left the window and nothing
// escalates.
func TestStormWindowBoundary(t *testing.T) {
	for _, tc := range []struct {
		name  string
		port  uint16
		extra uint64 // ticks added to every gap
		storm bool
	}{
		{"inside", 9206, 0, true},
		{"wider", 9207, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, sup := stormBed(t, tc.port)
			t0 := b.m.Clock() + 10_000 // past the first request's own ticks
			for i := uint64(0); i < stormThreshold; i++ {
				trapAt(t, b, sup, t0+i*stormWindow/(stormThreshold-1)+i*tc.extra)
			}
			st := sup.Status()
			if escalated := st.Level > 0; escalated != tc.storm {
				t.Fatalf("polls %d ticks apart end to end: level %d, window hits %d; want storm=%v",
					stormWindow+(stormThreshold-1)*tc.extra, st.Level, st.WindowHits, tc.storm)
			}
		})
	}
}

// TestWatchdogDrivesSupervisor: with a real poll cadence the kernel
// tick watchdog — not a test harness — runs the loop: guest traffic
// alone is enough for the supervisor to adopt a false removal.
func TestWatchdogDrivesSupervisor(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9204})
	blocks := b.profile(t, []string{"GET /\n", "HEAD /\n"}, []string{"POST /\n"})
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t), Verifier: true})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("post", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	if got := b.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST -> %q", got)
	}
	// More traffic: the watchdog fires during these runs and the
	// supervisor adopts the healed addresses without any manual Step.
	for i := 0; i < 3; i++ {
		b.assertGET(t)
	}
	if fl, err := cust.FalseRemovals(); err != nil || len(fl) != 0 {
		t.Fatalf("watchdog-driven adoption missing: %d entries (err=%v)", len(fl), err)
	}
	// Each adopted address is a strike against the feature.
	if br, ok := sup.Status().Breakers["post"]; !ok || br.Strikes == 0 {
		t.Errorf("watchdog-driven heal did not charge the feature's breaker: %+v ok=%v", br, ok)
	}
}

// TestStormIgnoresAdoptedHeals: a single verifier-mode POST over the
// mis-profiled blocks traps once per block, and the watchdog polls
// several times inside it. The verifier healed every one of those
// traps and the supervisor adopts them in the same step, so they are
// strikes against the feature, not a storm: the ladder must not reach
// the re-enable rung. The strikes may still trip the breaker.
func TestStormIgnoresAdoptedHeals(t *testing.T) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9208})
	blocks := b.profile(t, []string{"GET /\n", "HEAD /\n"}, []string{"POST /\n"})
	if len(blocks) <= stormThreshold {
		t.Fatalf("only %d mis-profiled blocks; the POST cannot make a storm-sized burst", len(blocks))
	}
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t), Verifier: true})
	if err != nil {
		t.Fatal(err)
	}
	sup := New(b.m, cust, Config{})
	if err := sup.Attach(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.DisableFeature("post", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	if got := b.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST -> %q", got)
	}
	b.assertGET(t)
	st := sup.Status()
	if st.Level >= 2 {
		t.Fatalf("one healed POST reached degradation level %d; want below the re-enable rung (2)", st.Level)
	}
	if fl, err := cust.FalseRemovals(); err != nil || len(fl) != 0 {
		t.Fatalf("heals not adopted: %d entries (err=%v)", len(fl), err)
	}
	if br := st.Breakers["post"]; br.Trips == 0 {
		t.Errorf("adopted strikes did not trip the breaker: %+v", br)
	}
}

// --- chaos -----------------------------------------------------------

// healChaosScenario: verifier-mode guest with a misclassified POST;
// transient faults at the heal/canary sites must only delay — never
// prevent — convergence to full service with an adopted (empty)
// false-removal log.
func healChaosScenario(t *testing.T, site string, seed int64) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9300})
	in := faultinject.New(seed)
	in.FailTransient(site, 1+int(seed%2), 1)
	b.m.SetFaultHook(in)
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t), Verifier: true})
	if err != nil {
		t.Fatal(err)
	}
	blocks := b.profile(t, []string{"GET /\n", "HEAD /\n"}, []string{"POST /\n"})
	sup := New(b.m, cust, Config{Canary: b.canary()})
	attachManual(t, b, sup)
	if _, err := sup.DisableFeature("post", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	if got := b.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST under verifier -> %q", got)
	}
	// Pump the loop; a transient fault costs one round, no more.
	for i := 0; i < 6; i++ {
		b.m.AdvanceClock(canaryEvery)
		sup.Step(b.m.Clock())
	}
	assertConverged(t, b, sup, cust)
	if fl, err := cust.FalseRemovals(); err != nil || len(fl) != 0 {
		t.Fatalf("false removals never adopted: %d (err=%v)", len(fl), err)
	}
	if got := b.request(t, "POST /\n"); !strings.Contains(got, "200") {
		t.Fatalf("POST after convergence -> %q", got)
	}
}

// stormChaosScenario: redirect-mode guest under a trap storm; faults
// on the ladder rungs (re-enable / disarm / restore) push it down to
// harsher rungs, but it must always converge to full service or the
// clean pristine fallback — never a wedged guest.
func stormChaosScenario(t *testing.T, site string, seed int64) {
	b := boot(t, webserv.Config{Name: "lighttpd", Port: 9301})
	in := faultinject.New(seed)
	switch site {
	case faultinject.SiteSuperviseDisarm:
		// Rung 3 only runs after rung 2 failed.
		in.FailTransient(faultinject.SiteSuperviseReenable, 1, -1)
	case faultinject.SiteSuperviseRestore:
		// Rung 4 only runs after rungs 2 and 3 failed.
		in.FailTransient(faultinject.SiteSuperviseReenable, 1, -1)
		in.FailTransient(faultinject.SiteSuperviseDisarm, 1, -1)
	}
	in.FailTransient(site, 1+int(seed%2), 1)
	b.m.SetFaultHook(in)
	cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
	if err != nil {
		t.Fatal(err)
	}
	blocks := b.profile(t,
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"})
	sup := New(b.m, cust, Config{})
	attachManual(t, b, sup)
	if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stormThreshold; i++ {
		b.request(t, "PUT /f x\n")
	}
	for i := 0; i < 6; i++ {
		sup.Step(b.m.Clock())
		if sup.Status().Err != nil {
			break
		}
		b.m.AdvanceClock(100)
	}
	assertConverged(t, b, sup, cust)
	// The ladder answered the storm: whatever rung it reached, the
	// blocked feature is back in service.
	if got := b.request(t, "PUT /f x\n"); !strings.Contains(got, "201") {
		t.Fatalf("PUT after ladder -> %q, want full service back", got)
	}
}

// assertConverged checks the chaos invariant: the guest is never
// wedged — it serves, the supervisor holds no fatal error, and the
// breaker ledger is internally consistent.
func assertConverged(t *testing.T, b *bed, sup *Supervisor, cust *core.Customizer) {
	t.Helper()
	if err := sup.Status().Err; err != nil {
		t.Fatalf("guest lost under transient faults: %v", err)
	}
	if len(b.m.Processes()) == 0 {
		t.Fatal("no live guest processes")
	}
	b.assertGET(t)
	st := sup.Status()
	if st.Restored && !st.Disarmed {
		t.Errorf("restored guest must be disarmed: %+v", st)
	}
	for name, br := range st.Breakers {
		switch br.State {
		case BreakerClosed, BreakerOpen, BreakerHalfOpen:
		default:
			t.Errorf("breaker %q in impossible state %d", name, br.State)
		}
		if br.State == BreakerOpen && br.Trips == 0 {
			t.Errorf("breaker %q open without a recorded trip", name)
		}
		if br.Probation > probationMax {
			t.Errorf("breaker %q probation %d exceeds cap", name, br.Probation)
		}
	}
}

// TestChaosSupervisorConverges sweeps every supervise fault site with
// 20 fixed seeds each: a transiently-faulted supervisor action must
// leave the guest either serving at full capacity or restored to the
// clean pristine fallback — never wedged.
func TestChaosSupervisorConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short")
	}
	const seedsPerSite = 20
	healSites := []string{faultinject.SiteSuperviseHeal, faultinject.SiteSuperviseCanary}
	stormSites := []string{
		faultinject.SiteSuperviseReenable,
		faultinject.SiteSuperviseDisarm,
		faultinject.SiteSuperviseRestore,
	}
	for _, site := range healSites {
		for seed := int64(0); seed < seedsPerSite; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", site, seed), func(t *testing.T) {
				healChaosScenario(t, site, seed)
			})
		}
	}
	for _, site := range stormSites {
		for seed := int64(0); seed < seedsPerSite; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", site, seed), func(t *testing.T) {
				stormChaosScenario(t, site, seed)
			})
		}
	}
}

// TestSupervisorBreakerDeterministicAcrossSeeds: the breaker ledger
// after a faulted storm scenario is a pure function of (seed, plan) —
// replaying any seed yields the identical ledger, and all seeds that
// share a plan shape agree on the transition outcome.
func TestSupervisorBreakerDeterministicAcrossSeeds(t *testing.T) {
	run := func(seed int64) map[string]Breaker {
		b := boot(t, webserv.Config{Name: "lighttpd", Port: 9302})
		in := faultinject.New(seed)
		in.FailTransient(faultinject.SiteSuperviseReenable, 1, 1)
		b.m.SetFaultHook(in)
		cust, err := core.New(b.m, b.root, core.Options{RedirectTo: b.errPath(t)})
		if err != nil {
			t.Fatal(err)
		}
		blocks := b.profile(t,
			[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
			[]string{"PUT /f data\n", "DELETE /f\n"})
		sup := New(b.m, cust, Config{})
		attachManual(t, b, sup)
		if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < stormThreshold; i++ {
			b.request(t, "PUT /f x\n")
		}
		for i := 0; i < 4; i++ {
			sup.Step(b.m.Clock())
			b.m.AdvanceClock(100)
		}
		assertConverged(t, b, sup, cust)
		return sup.Status().Breakers
	}
	want := run(0)
	for seed := int64(1); seed < 20; seed++ {
		got := run(seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d breakers, seed 0 had %d", seed, len(got), len(want))
		}
		for name, w := range want {
			g, ok := got[name]
			if !ok {
				t.Fatalf("seed %d: breaker %q missing", seed, name)
			}
			if g.State != w.State || g.Trips != w.Trips || g.Strikes != w.Strikes {
				t.Errorf("seed %d: breaker %q = %+v, seed 0 = %+v (transitions must be seed-independent)",
					seed, name, g, w)
			}
		}
	}
}

// TestSupervisorTraceReplaysByteIdentical: two identical supervised
// chaos runs (same seed, same plan, virtual clocks, stubbed wall
// clock) must serialize byte-identical observability traces — the
// closed loop adds no hidden nondeterminism.
func TestSupervisorTraceReplaysByteIdentical(t *testing.T) {
	run := func() []byte {
		b := boot(t, webserv.Config{Name: "lighttpd", Port: 9303})
		in := faultinject.New(11)
		in.FailTransient(faultinject.SiteSuperviseReenable, 1, 1)
		b.m.SetFaultHook(in)
		o := obs.New(8192)
		o.SetWallClock(func() time.Time { return time.Unix(0, 0) })
		cust, err := core.New(b.m, b.root, core.Options{
			RedirectTo: b.errPath(t), Observer: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		blocks := b.profile(t,
			[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n", "BREW /\n"},
			[]string{"PUT /f data\n", "DELETE /f\n"})
		sup := New(b.m, cust, Config{Observer: o})
		attachManual(t, b, sup)
		if _, err := sup.DisableFeature("webdav", blocks, core.PolicyBlockEntry); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < stormThreshold; i++ {
			b.request(t, "PUT /f x\n")
		}
		for i := 0; i < 4; i++ {
			sup.Step(b.m.Clock())
			b.m.AdvanceClock(100)
		}
		var buf bytes.Buffer
		if err := o.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, c := run(), run()
	if !bytes.Equal(a, c) {
		t.Fatalf("supervised chaos trace not reproducible: %d vs %d bytes", len(a), len(c))
	}
	if !bytes.Contains(a, []byte("supervise.storm")) {
		t.Error("trace missing supervise.storm event")
	}
	// The faulted re-enable rung fell through to the disarm rung; both
	// the injected fault and the rung decision must be in the trace.
	if !bytes.Contains(a, []byte(faultinject.SiteSuperviseReenable)) {
		t.Error("trace missing the injected supervise.reenable fault")
	}
	if !bytes.Contains(a, []byte("supervise.degrade.disarm")) {
		t.Error("trace missing supervise.degrade.disarm event")
	}
}
