package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/dynacut/dynacut"
)

// toggleGuest is one guest of the toggle workload with its fixed
// number of rewrites per round.
type toggleGuest struct {
	cfg dynacut.WebServerConfig
	ops int
}

// toggleGuests: a one-process lighttpd, an nginx-shaped master with
// two workers, and a web server whose extra handlers and init chain
// make its image many times lighttpd's. lighttpd's count is what makes
// the process-table leak (every rewrite kills the old tree without
// removing it) show within a round; nginx and webserv-xl get counts
// that take about 0.7 s of a round each (BENCHMARK_NOTES.md). Counts
// are even, so every guest ends a round with WebDAV enabled.
var toggleGuests = []toggleGuest{
	{dynacut.WebServerConfig{Name: "lighttpd", Port: 8080}, 1600},
	{dynacut.WebServerConfig{Name: "nginx", Port: 8080, Workers: 2}, 24},
	{dynacut.WebServerConfig{Name: "webserv-xl", Port: 8080, ExtraFeatures: 256, InitRoutines: 1024}, 300},
}

// expectation is the PUT probe's expected status while WebDAV is
// disabled and once it is enabled again.
type expectation struct{ disabled, enabled string }

var webdavExpect = expectation{disabled: "403", enabled: "201"}

func runToggle(r *round) (time.Duration, time.Duration, error) {
	return toggle(r, toggleGuests, webdavExpect)
}

// toggle sets up every guest with one long-lived Customizer, then runs
// the guests' DisableBlocks / EnableBlocks operations in a seeded
// interleaving, probing each guest after each of its rewrites.
func toggle(r *round, guests []toggleGuest, want expectation) (setup, job time.Duration, err error) {
	t0 := time.Now()
	sp := r.rec.begin("setup", "bench", trackMain, r.root)
	gs := make([]*webGuest, len(guests))
	custs := make([]*dynacut.Customizer, len(guests))
	observers := make([]*dynacut.Observer, len(guests))
	for i, g := range guests {
		if gs[i], err = setupWebGuest(r, g.cfg, sp); err != nil {
			return 0, 0, err
		}
		opts := dynacut.CustomizerOptions{RedirectTo: gs[i].redirect, Tree: g.cfg.Workers > 0}
		if r.Traced {
			// Large enough that a round's phase events never wrap.
			observers[i] = dynacut.NewObserver(1 << 16)
			opts.Observer = observers[i]
		}
		tc := time.Now()
		if custs[i], err = dynacut.NewCustomizer(gs[i].sess.Machine, gs[i].sess.PID(), opts); err != nil {
			return 0, 0, err
		}
		r.rec.add("new customizer", "core", trackMain, sp, tc, time.Now())
		r.rec.nameTrack(trackGuest+i, g.cfg.Name)
	}
	r.rec.end(sp)
	setup = time.Since(t0)

	var order []int
	for i, g := range guests {
		for k := 0; k < g.ops; k++ {
			order = append(order, i)
		}
	}
	r.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })

	t1 := time.Now()
	jb := r.rec.begin("job", "bench", trackMain, r.root)
	done := make([]int, len(guests))
	killed := 0
	for _, gi := range order {
		g, cust, m := gs[gi], custs[gi], gs[gi].sess.Machine
		k := done[gi]
		done[gi]++
		disable := len(cust.Disabled()) == 0
		var before int
		if r.Traced {
			before = len(m.Processes())
		}
		ts := time.Now()
		var st dynacut.RewriteStats
		var err error
		if disable {
			st, err = cust.DisableBlocks("webdav", g.blocks, dynacut.PolicyBlockEntry)
		} else {
			st, err = cust.EnableBlocks("webdav")
		}
		te := time.Now()
		r.rec.add("core.rewrite", "core", trackGuest+gi, jb, ts, te)
		us := micros(te.Sub(ts))
		r.op(g.cfg.Name, us)
		r.sample(sRewrite, us)
		if n := guests[gi].ops; k < n/10 {
			r.sample(sRewriteHead, us)
		} else if k >= n-n/10 {
			r.sample(sRewriteTail, us)
		}
		rewriteStats(r, st)
		ok := r.check(err == nil, "%s rewrite %d: %v", g.cfg.Name, k, err)
		if ok {
			killed += before
		}
		expect := want.enabled
		if disable == ok { // disabled now: a disable committed, or an enable failed
			expect = want.disabled
		}
		probe(r, m, g.cfg.Port, putProbe, expect, fmt.Sprintf("%s probe after rewrite %d", g.cfg.Name, k), trackGuest+gi, jb)
	}
	r.rec.end(jb)
	job = time.Since(t1)

	dead := 0
	for _, g := range gs {
		dead += deadProcs(g.sess.Machine)
	}
	r.set("kernel.dead_procs", float64(dead))
	if r.Traced {
		r.set("core.killed_procs", float64(killed))
		var dropped uint64
		for i, o := range observers {
			r.rec.importObs(o, trackGuest+i, trackGuest+i, phaseLayer)
			dropped += o.Dropped()
		}
		r.set("obs.dropped", float64(dropped))
	}
	finishRewrites(r)
	finishKernel(r)
	r.set("heap_mb", heapMB())
	runtime.KeepAlive(custs) // the guests, leaked processes included, count in the heap
	return setup, job, nil
}
