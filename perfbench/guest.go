package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/dynacut/dynacut"
)

// Profiling request sets: the wanted read-only traffic and the WebDAV
// writes whose coverage difference is the feature toggle and
// fleet-load disable.
var (
	wantedReqs    = []string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n"}
	undesiredReqs = []string{"PUT /f data\n", "DELETE /f\n"}
)

// putProbe is the request whose status tells whether WebDAV is on.
const putProbe = "PUT /f data\n"

// webGuest is a booted, profiled web-server guest.
type webGuest struct {
	cfg      dynacut.WebServerConfig
	sess     *dynacut.Session
	blocks   []dynacut.AbsBlock
	redirect uint64
}

// setupWebGuest builds, boots and profiles one web-server guest: the
// set-up every workload that rewrites a server pays before its job.
func setupWebGuest(r *round, cfg dynacut.WebServerConfig, parent int) (*webGuest, error) {
	t0 := time.Now()
	app, err := dynacut.BuildWebServer(cfg)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", cfg.Name, err)
	}
	t1 := time.Now()
	r.rec.add("build "+cfg.Name, "build", trackMain, parent, t0, t1)
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, cfg.Port)
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", cfg.Name, err)
	}
	t2 := time.Now()
	r.rec.add("boot "+cfg.Name, "kernel", trackMain, parent, t1, t2)

	// Profile: wanted traffic, then the WebDAV writes, each under the
	// coverage tracer. PUT must create (201) before anything is cut.
	sess.Collector.Reset()
	for _, req := range wantedReqs {
		_, err := sess.Request(req)
		r.check(err == nil, "%s profile %q: %v", cfg.Name, req, err)
	}
	wanted, err := sess.SnapshotPhase("wanted")
	if err != nil {
		return nil, err
	}
	for _, req := range undesiredReqs {
		resp, err := sess.Request(req)
		if req == putProbe {
			r.check(err == nil && strings.Contains(resp, "201"), "%s profile PUT: %q %v", cfg.Name, resp, err)
		} else {
			r.check(err == nil, "%s profile %q: %v", cfg.Name, req, err)
		}
	}
	undesired, err := sess.SnapshotPhase("undesired")
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	r.rec.add("profile "+cfg.Name, "trace", trackMain, parent, t2, t3)
	blocks := dynacut.IdentifyFeatureBlocks(undesired, wanted, app.Exe.Name)
	t4 := time.Now()
	r.rec.add("diff "+cfg.Name, "coverage", trackMain, parent, t3, t4)
	r.Values["trace.profile_ms"] += float64(t3.Sub(t2).Microseconds()) / 1e3
	r.Values["coverage.diff_us"] += micros(t4.Sub(t3))
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%s: profiling found no WebDAV blocks", cfg.Name)
	}
	redirect, err := sess.SymbolAddr("resp_403")
	if err != nil {
		return nil, err
	}
	sess.Machine.SetTracer(nil) // serve untraced from here on
	return &webGuest{cfg: cfg, sess: sess, blocks: blocks, redirect: redirect}, nil
}

// probe sends req to the guest on m over a fresh connection, checks
// that the response contains want, and records the guest execution it
// took.
func probe(r *round, m *dynacut.Machine, port uint16, req, want, who string, track, parent int) {
	var allocs uint64
	if r.Traced {
		allocs = allocCount()
	}
	c0 := m.Clock()
	t0 := time.Now()
	err := dynacut.HealthProbe(port, req, want)(m, 0)
	t1 := time.Now()
	r.rec.add("kernel.probe", "kernel", track, parent, t0, t1)
	r.Values["kernel.run_s"] += t1.Sub(t0).Seconds()
	r.Values["kernel.vticks"] += float64(m.Clock() - c0)
	if r.Traced {
		r.Values["kernel.allocs"] += float64(allocCount() - allocs)
	}
	r.sample(sProbe, micros(t1.Sub(t0)))
	r.check(err == nil, "%s: %v", who, err)
}

// finishKernel derives the kernel layer's rates from the host time
// spent running guest code (kernel.run_s) and the virtual ticks it
// retired (kernel.vticks).
func finishKernel(r *round) {
	ticks := r.Values["kernel.vticks"]
	r.set("kernel.minst_s", frac(ticks/1e6, r.Values["kernel.run_s"]))
	if r.Traced {
		r.set("kernel.allocs_per_kinst", frac(r.Values["kernel.allocs"], ticks/1e3))
	}
	delete(r.Values, "kernel.allocs")
}

// deadProcs counts process-table entries of m that exited but are
// still resolvable through Machine.Process.
func deadProcs(m *dynacut.Machine) int {
	maxPID := 0
	for _, p := range m.Processes() {
		maxPID = max(maxPID, p.PID())
	}
	n := 0
	for pid := 1; pid <= maxPID; pid++ {
		if p, err := m.Process(pid); err == nil && p.Exited() {
			n++
		}
	}
	return n
}

// rewriteStats folds one rewrite's RewriteStats into the round's
// per-layer sums; finishRewrites turns them into per-rewrite means.
func rewriteStats(r *round, st dynacut.RewriteStats) {
	r.Values["rewrites"]++
	r.Values["criu.checkpoint_us"] += micros(st.Checkpoint)
	r.Values["criu.restore_us"] += micros(st.Restore)
	r.Values["criu.image_bytes"] += float64(st.ImageBytes)
	r.Values["pages.dumped"] += float64(st.PagesDumped)
	r.Values["pages.skipped"] += float64(st.PagesSkipped)
	r.Values["crit.edit_us"] += micros(st.CodeUpdate)
	r.Values["crit.handler_us"] += micros(st.InsertHandler)
	r.Values["crit.blocks_patched"] += float64(st.BlocksPatched)
	r.Values["core.health_us"] += micros(st.HealthCheck)
	r.Values["core.attempts"] += float64(st.Attempts)
	if st.RolledBack {
		r.Values["core.rolled_back"]++
	}
	r.sample(sDowntime, micros(st.Downtime))
}

func finishRewrites(r *round) {
	n := r.Values["rewrites"]
	for _, k := range []string{"criu.checkpoint_us", "criu.restore_us", "criu.image_bytes", "crit.edit_us", "crit.handler_us", "core.health_us"} {
		r.Values[k] = frac(r.Values[k], n)
	}
	r.set("criu.delta_skip_frac", frac(r.Values["pages.skipped"], r.Values["pages.dumped"]+r.Values["pages.skipped"]))
	if r.Traced {
		for name, key := range map[string]string{"decode": "criu.decode_us", "validate": "core.validate_us", "kill": "core.kill_us"} {
			_, total := r.rec.spanStats(name)
			r.set(key, frac(total/1e3, n))
		}
		r.set("core.self_us", frac(r.rec.selfOf("core.rewrite")/1e3, n))
	}
	for _, k := range []string{"rewrites", "pages.dumped", "pages.skipped"} {
		delete(r.Values, k)
	}
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
