package main

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/dynacut/dynacut"
)

// The benchmark's output checks must be able to fail: expecting the
// wrong status from the WebDAV probe has to turn into counted failures.

func TestToggleWrongExpectationFails(t *testing.T) {
	guests := []toggleGuest{{dynacut.WebServerConfig{Name: "lighttpd", Port: 8080}, 4}}

	r := newRound(1, 0, false)
	if _, _, err := toggle(r, guests, webdavExpect); err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("right expectation: %d of %d failed: %v", r.Failed, r.Attempted, r.Failures)
	}

	r = newRound(1, 0, false)
	wrong := expectation{disabled: "201", enabled: "201"} // PUT while WebDAV is disabled
	if _, _, err := toggle(r, guests, wrong); err != nil {
		t.Fatal(err)
	}
	if r.Failed != 2 {
		t.Fatalf("expecting 201 while disabled: %d failures, want 2 (one per disable): %v", r.Failed, r.Failures)
	}
}

func TestFleetLoadWrongExpectationFails(t *testing.T) {
	r := newRound(1, 0, false)
	if _, _, err := fleetLoad(r, expectation{disabled: "201", enabled: "201"}); err != nil {
		t.Fatal(err)
	}
	if r.Failed != fleetReplicas {
		t.Fatalf("expecting 201 after the rollout: %d failures, want %d: %v", r.Failed, fleetReplicas, r.Failures)
	}
}

func TestTracedRoundAccountsForItsTime(t *testing.T) {
	guests := []toggleGuest{{dynacut.WebServerConfig{Name: "lighttpd", Port: 8080}, 6}}
	r := newRound(1, 1, true)
	if _, _, err := toggle(r, guests, webdavExpect); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Values["kernel.dead_procs"], r.Values["core.killed_procs"]; got != want || got != 6 {
		t.Fatalf("dead_procs %v, killed_procs %v, want 6 each", got, want)
	}
	r.rec.end(r.root)
	self := r.rec.selfTimes()
	for _, l := range []string{"criu", "crit", "core", "kernel"} {
		if self[l] <= 0 {
			t.Errorf("layer %s has no self time: %v", l, self)
		}
	}
	if n, _ := r.rec.spanStats("restore"); n != 6 {
		t.Errorf("imported %d restore spans from the customizer's observer, want 6", n)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and the
// catalog the benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, mt := range catalog {
		want[mt.scope] = append(want[mt.scope], mt.name+" "+mt.unit)
	}
	check := func(scope string, got []struct{ Name, Unit string }) {
		if len(got) != len(want[scope]) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", scope, len(got), len(want[scope]))
		}
		for i, m := range got {
			if s := m.Name + " " + m.Unit; s != want[scope][i] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, catalog %q", scope, i, s, want[scope][i])
			}
		}
	}
	check(gated, spec.EndToEnd)
	check(layer, spec.PerLayer)
}

func TestTracedFleetRoundNestsRewritesInWaves(t *testing.T) {
	r := newRound(1, 1, true)
	if _, _, err := fleetLoad(r, webdavExpect); err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Fatalf("%d failures: %v", r.Failed, r.Failures)
	}
	if r.Values["fleet.new_ms"] <= 0 || r.Values["fleet.attest_us"] <= 0 {
		t.Fatalf("fleet spans missing: new_ms %v attest_us %v", r.Values["fleet.new_ms"], r.Values["fleet.attest_us"])
	}
	rewrites := 0
	for _, s := range r.rec.spans {
		if s.name != "core.rewrite" {
			continue
		}
		rewrites++
		if p := r.rec.spans[s.parent].name; p != "fleet.wave" {
			t.Errorf("replica rewrite's parent is %q, want its fleet.wave", p)
		}
	}
	if rewrites != fleetReplicas {
		t.Fatalf("%d rewrite spans, want %d", rewrites, fleetReplicas)
	}
	if got, want := r.Values["kernel.dead_procs"], r.Values["core.killed_procs"]; got != want || got != fleetReplicas {
		t.Fatalf("dead_procs %v, killed_procs %v, want %d each", got, want, fleetReplicas)
	}
}

// TestRunLevelFigures pins how op_us and failed_frac are formed:
// op_us weighs every guest the same, and failed_frac counts every
// failure of the run, in whichever round it fell.
func TestRunLevelFigures(t *testing.T) {
	r := newRound(1, 0, false)
	for _, us := range []float64{100, 100, 100, 9000} { // many short operations
		r.op("a", us)
	}
	r.op("b", 400) // one long operation
	r.finishOp()
	if got := r.Values["op_us"]; got < 199.99 || got > 200.01 {
		t.Errorf("op_us %v, want 200: the geometric mean of the medians 100 and 400", got)
	}

	res := &result{plain: []*round{r, r, r}, traced: []*round{r}, attempted: 40, failed: 1}
	if got := res.value(metric{name: "failed_frac", scope: figure}); got != 0.025 {
		t.Errorf("failed_frac %v, want 1/40", got)
	}
}

// TestOutageWithoutArrivalsIsNotCompared: a bucket of the outage that
// the schedule left without arrivals makes the downtime cross-check
// impossible, not failed.
func TestOutageWithoutArrivalsIsNotCompared(t *testing.T) {
	load := &dynacut.LoadResult{}
	for i := 0; i < int(fleetHorizon/fleetBucket); i++ {
		load.Buckets = append(load.Buckets, dynacut.LoadBucket{Index: i, Offered: 10})
	}
	if !outageAt(fleetHold, 3*fleetBucket).sampled(load) {
		t.Fatal("every bucket offered traffic, yet the outage counts as unobservable")
	}
	load.Buckets[(fleetHold+2*fleetBucket)/fleetBucket].Offered = 0
	if outageAt(fleetHold, 3*fleetBucket).sampled(load) {
		t.Fatal("a bucket inside the outage offered nothing, yet the outage counts as observable")
	}
	if !outageAt(fleetHold, 2*fleetBucket).sampled(load) {
		t.Fatal("the empty bucket lies past a two-bucket outage, yet the outage counts as unobservable")
	}
}

// TestOutagePlacement pins which observed gaps explain a journal span.
// The off-grid case is seed 675147169, round 28: the drivers parked at
// the first arrival past the hold point, a response stamped after the
// hold point lit the hold bucket, and the guest's health run after the
// restore added 8 ticks to the span; the journal read 300008 vticks
// and the load saw two dark buckets, more than one bucket apart.
func TestOutagePlacement(t *testing.T) {
	b := uint64(fleetBucket)
	gap := func(first, last uint64) dynacut.DowntimeSpan {
		return dynacut.DowntimeSpan{Start: first * b, End: (last + 1) * b}
	}
	for _, tc := range []struct {
		name        string
		park, ticks uint64
		first, last uint64
		want        bool
	}{
		{"on the grid, whole", fleetHold, 3 * b, 4, 6, true},
		{"on the grid, response at the park", fleetHold, 3 * b, 5, 6, true},
		{"on the grid, resumed bucket dark too", fleetHold, 3 * b, 4, 7, true},
		{"on the grid, a bucket missing", fleetHold, 3 * b, 5, 5, false},
		{"on the grid, dark before the park", fleetHold, 3 * b, 3, 6, false},
		{"on the grid, dark after the resume", fleetHold, 3 * b, 4, 8, false},
		{"off the grid", fleetHold + 120, 3*b + 8, 5, 6, true},
		{"off the grid, a bucket missing", fleetHold + 120, 3*b + 8, 6, 6, false},
		{"span far longer than the gap", fleetHold, 5 * b, 4, 6, false},
	} {
		if got := outageAt(tc.park, tc.ticks).explains(gap(tc.first, tc.last)); got != tc.want {
			t.Errorf("%s: park %d, %d ticks, gap over buckets %d to %d: explains = %v, want %v",
				tc.name, tc.park, tc.ticks, tc.first, tc.last, got, tc.want)
		}
	}
	if outageAt(fleetHold, 3*b).explains(dynacut.DowntimeSpan{}) {
		t.Error("no observed gap explains a three-bucket outage")
	}
}

func TestParkOffset(t *testing.T) {
	arrivals := []dynacut.LoadArrival{{At: 10}, {At: fleetHold - 1}, {At: fleetHold + 7}, {At: fleetHold + 9}}
	if got := parkOffset(arrivals); got != fleetHold+7 {
		t.Fatalf("park at %d, want the first arrival at or past the hold point, %d", got, fleetHold+7)
	}
}
