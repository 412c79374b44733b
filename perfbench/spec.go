package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/dynacut/dynacut"
)

// specGuests are the SPEC-shaped CPU-bound guests: small and
// loop-heavy, mid-sized, and wide text.
var specGuests = []string{"605.mcf_s", "631.deepsjeng_s", "600.perlbench_s"}

// specSlice is how many instructions each engine retires before the
// two are compared: the engines take turns, slice by slice, on the
// same guest.
const specSlice = 32_768

// specMaxSlices bounds a guest run that never exits.
const specMaxSlices = 2_000

func runSpec(r *round) (setup, job time.Duration, err error) {
	t0 := time.Now()
	sp := r.rec.begin("setup", "bench", trackMain, r.root)
	apps := make([]*dynacut.SpecApp, len(specGuests))
	for i, name := range specGuests {
		prof, ok := specProfile(name)
		if !ok {
			return 0, 0, fmt.Errorf("no SPEC profile %s", name)
		}
		tb := time.Now()
		if apps[i], err = dynacut.BuildSpec(prof); err != nil {
			return 0, 0, fmt.Errorf("build %s: %w", name, err)
		}
		r.rec.add("build "+name, "build", trackMain, sp, tb, time.Now())
	}
	r.rec.end(sp)
	setup = time.Since(t0)

	t1 := time.Now()
	jb := r.rec.begin("job", "bench", trackMain, r.root)
	var machines []*dynacut.Machine // kept live until the heap is measured
	var insts, secs [2]float64      // per engine: retired vticks, host seconds
	var hits, misses, translations float64
	var allocs uint64
	var observers []*dynacut.Observer
	for _, gi := range r.rng.Perm(len(specGuests)) {
		name := specGuests[gi]
		modes := [2]dynacut.ExecMode{dynacut.ModeInterpret, dynacut.ModeTranslate}
		var ms [2]*dynacut.Machine
		var ps [2]*dynacut.Process
		for e, mode := range modes {
			tl := time.Now()
			ms[e] = dynacut.NewMachine()
			ms[e].SetExecMode(mode)
			if r.Traced {
				o := dynacut.NewObserver(0)
				ms[e].SetObserver(o)
				observers = append(observers, o)
			}
			if ps[e], err = ms[e].Load(apps[gi].Exe, apps[gi].Libc); err != nil {
				return 0, 0, fmt.Errorf("load %s: %w", name, err)
			}
			r.rec.nameTrack(trackGuest+2*gi+e, name+" "+mode.String())
			r.rec.add("kernel.load", "kernel", trackGuest+2*gi+e, jb, tl, time.Now())
		}
		machines = append(machines, ms[:]...)
		if r.Traced {
			allocs -= allocCount()
		}
		// The unit operation: run the guest to completion under both
		// engines, translation cost included.
		agree := true
		var op time.Duration
		for slices := 0; !(ps[0].Exited() && ps[1].Exited()) && slices < specMaxSlices; slices++ {
			for e, m := range ms {
				ts := time.Now()
				m.Run(specSlice)
				te := time.Now()
				r.rec.add("kernel.run", "kernel", trackGuest+2*gi+e, jb, ts, te)
				op += te.Sub(ts)
				secs[e] += te.Sub(ts).Seconds()
			}
			agree = agree && ms[0].Clock() == ms[1].Clock()
		}
		r.op(name, micros(op))
		if r.Traced {
			allocs += allocCount()
		}
		for e, m := range ms {
			insts[e] += float64(m.Clock())
			r.check(ps[e].Exited() && ps[e].KilledBy() == 0 && ps[e].ExitCode() == 0,
				"%s under %v: exited=%v signal=%v code=%d", name, modes[e], ps[e].Exited(), ps[e].KilledBy(), ps[e].ExitCode())
		}
		agree = agree && ps[0].ExitCode() == ps[1].ExitCode() && bytes.Equal(ps[0].Stdout(), ps[1].Stdout())
		r.check(agree, "%s: engines disagree (vticks %d vs %d, exit %d vs %d)",
			name, ms[0].Clock(), ms[1].Clock(), ps[0].ExitCode(), ps[1].ExitCode())
		bc := ms[1].BlockCacheStats()
		hits += float64(bc.Hits)
		misses += float64(bc.Misses)
		translations += float64(bc.Translations)
	}
	r.rec.end(jb)
	job = time.Since(t1)

	r.set("interp_minst_s", frac(insts[0]/1e6, secs[0]))
	r.set("translate_minst_s", frac(insts[1]/1e6, secs[1]))
	r.set("kernel.run_s", secs[0]+secs[1])
	r.set("kernel.vticks", insts[0]+insts[1])
	r.set("kernel.bcache.hit_frac", frac(hits, hits+misses))
	r.set("kernel.bcache.translations", translations)
	if r.Traced {
		r.Values["kernel.allocs"] = float64(allocs)
		var dropped uint64
		for _, o := range observers {
			dropped += o.Dropped()
		}
		r.set("obs.dropped", float64(dropped))
	}
	finishKernel(r)
	r.set("heap_mb", heapMB())
	runtime.KeepAlive(machines)
	return setup, job, nil
}

func specProfile(name string) (dynacut.SpecProfile, bool) {
	for _, p := range dynacut.SpecProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return dynacut.SpecProfile{}, false
}
