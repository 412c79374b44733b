package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/dynacut/dynacut"
	"github.com/dynacut/dynacut/internal/fleet"
)

// fleet-load shape: a 16-replica fleet under seeded Poisson open-loop
// load, canary then waves of four, two worker lanes. The load (mean
// gap, horizon, bucket, GET 4 : HEAD 1 below) is the repository's own
// rollout-under-load example: README.md and cmd/fleetdemo -load. The
// charge rate and cap pin every transactional rewrite's virtual
// downtime to three buckets, so the journal and the load generator
// must both see it.
const (
	fleetReplicas = 16
	fleetWorkers  = 2
	fleetWave     = 4
	fleetBucket   = 100_000
	fleetHorizon  = 1_200_000
	fleetHold     = fleetHorizon / 3 // where each replica's load pauses for its rewrite (the slo default)
	fleetMeanGap  = 10_000
)

func runFleetLoad(r *round) (time.Duration, time.Duration, error) {
	return fleetLoad(r, webdavExpect)
}

// fleetLoad sets up a profiled lighttpd template, runs a scrubbed
// rollout that disables WebDAV on every replica under load, and
// reverts every replica to its pristine image from the store.
func fleetLoad(r *round, want expectation) (setup, job time.Duration, err error) {
	t0 := time.Now()
	sp := r.rec.begin("setup", "bench", trackMain, r.root)
	g, err := setupWebGuest(r, dynacut.WebServerConfig{Name: "lighttpd", Port: 8080}, sp)
	if err != nil {
		return 0, 0, err
	}
	r.rec.end(sp)
	setup = time.Since(t0)

	var mu sync.Mutex // guards r and the step stamps against worker lanes
	var firstLease, lastStep time.Time
	var fleetObs *dynacut.Observer
	if r.Traced {
		fleetObs = dynacut.NewObserver(0)
		r.rec.nameTrack(trackFleet, "fleet")
		for i := 0; i < fleetReplicas; i++ {
			r.rec.nameTrack(trackGuest+i, fmt.Sprintf("replica %d", i))
		}
	}
	fcfg := dynacut.FleetConfig{
		Replicas:     fleetReplicas,
		Workers:      fleetWorkers,
		CanaryShards: 1,
		WaveSize:     fleetWave,
		Scrub:        true,
		Observer:     fleetObs,
		Core: dynacut.CustomizerOptions{
			RedirectTo:     g.redirect,
			TicksPerSecond: 2_000_000_000_000,
			MaxChargeTicks: 3 * fleetBucket,
		},
		OnStep: func(ev dynacut.StepEvent) {
			now := time.Now()
			mu.Lock()
			if ev.Kind == "lease" && firstLease.IsZero() {
				firstLease = now
			}
			lastStep = now
			mu.Unlock()
		},
	}
	load := dynacut.SLOConfig{
		Port:     g.cfg.Port,
		Schedule: dynacut.NewPoissonSchedule(fleetMeanGap, r.rng.Int63()),
		Mix: dynacut.NewLoadMix(
			dynacut.LoadRequest{Payload: "GET /\n", Weight: 4},
			dynacut.LoadRequest{Payload: "HEAD /\n"},
		),
		Horizon:     fleetHorizon,
		HoldTicks:   fleetHold,
		BucketTicks: fleetBucket,
		PollTicks:   fleetMeanGap / 2,
	}

	t1 := time.Now()
	jb := r.rec.begin("job", "bench", trackMain, r.root)
	ro := r.rec.begin("slo.rollout_under_load", "loadgen", trackMain, jb)
	apply := func(rep *dynacut.FleetReplica) (dynacut.RewriteStats, error) {
		var before int
		if r.Traced {
			before = len(rep.Machine.Processes())
		}
		ts := time.Now()
		st, err := rep.Cust.DisableBlocks("webdav", g.blocks, dynacut.PolicyBlockEntry)
		te := time.Now()
		r.rec.add("core.rewrite", "core", trackGuest+rep.Index, ro, ts, te)
		mu.Lock()
		r.sample(sRewrite, micros(te.Sub(ts)))
		rewriteStats(r, st)
		if r.Traced && err == nil {
			r.Values["core.killed_procs"] += float64(before)
		}
		mu.Unlock()
		return st, err
	}
	rep, f, err := dynacut.RolloutUnderLoad(g.sess.Machine, g.sess.PID(), fcfg, load, apply)
	rollout := time.Since(t1)
	r.rec.end(ro)
	if !r.check(err == nil, "rollout under load: %v", err) {
		r.rec.end(jb)
		return setup, time.Since(t1), nil
	}
	checkRollout(r, rep, parkOffset(load.Schedule.Arrivals(fleetHorizon)))
	replicas := f.Replicas()
	for _, rp := range replicas {
		probe(r, rp.Machine, g.cfg.Port, putProbe, want.disabled, fmt.Sprintf("replica %d after rollout", rp.Index), trackGuest+rp.Index, jb)
	}

	// In traced rounds only, save each customized tree into the page
	// store, so that store.deposit_us is measured. The save is not part
	// of the job: job_s leaves it out.
	store := f.Store()
	var depositUS float64
	var save time.Duration
	if r.Traced {
		ts := time.Now()
		sv := r.rec.begin("save (traced rounds only)", "bench", trackMain, jb)
		for _, rp := range replicas {
			depositUS += saveReplica(r, rp, store, sv)
		}
		r.rec.end(sv)
		save = time.Since(ts)
	}

	// Revert, replica by replica (the unit operation): tear the tree
	// down and restore the pristine image from the store.
	t2 := time.Now()
	var materializeUS float64
	for _, rp := range replicas {
		ts := time.Now()
		materializeUS += revertReplica(r, rp, store, jb)
		r.op(g.cfg.Name, micros(time.Since(ts)))
	}
	revert := time.Since(t2)
	for _, rp := range replicas {
		probe(r, rp.Machine, g.cfg.Port, putProbe, want.enabled, fmt.Sprintf("replica %d after revert", rp.Index), trackGuest+rp.Index, jb)
	}
	r.rec.end(jb)
	job = time.Since(t1) - save

	st := store.Stats()
	r.set("rollout_s", rollout.Seconds())
	r.set("revert_s", revert.Seconds())
	r.set("served_per_s", frac(float64(rep.Served), rollout.Seconds()))
	r.set("store.materialize_us", materializeUS/fleetReplicas)
	r.set("store.dedup_frac", frac(float64(st.DedupHits), float64(st.PagesInterned)))
	r.set("store.stored_bytes", float64(st.StoredBytes))
	r.set("fleet.controller_ms", float64(lastStep.Sub(firstLease).Microseconds())/1e3)
	r.set("fleet.lease_expired", float64(rep.Rollout.LeaseExpiries))
	r.set("fleet.requeues", float64(rep.Rollout.Requeues))
	r.set("fleet.makespan_vticks", float64(rep.Rollout.FleetTicks))
	j := fleet.NewJournal()
	for _, rec := range rep.Journal {
		if err := j.Append(rec); err != nil {
			return 0, 0, fmt.Errorf("re-encoding the rollout journal: %w", err)
		}
	}
	r.set("fleet.journal_bytes", float64(len(j.Bytes())))
	r.set("loadgen.offered", float64(rep.Total))
	r.set("loadgen.served", float64(rep.Served))
	r.set("loadgen.errors", float64(rep.Errors))
	r.set("loadgen.dropped", float64(rep.Dropped))
	r.set("loadgen.host_us_per_req", frac(micros(rollout), float64(rep.Served)))
	r.set("slo.p99_vticks", float64(rep.P99))
	dead := 0
	for _, rp := range replicas {
		dead += deadProcs(rp.Machine)
	}
	r.set("kernel.dead_procs", float64(dead))
	if r.Traced {
		var dropped uint64
		for _, rp := range replicas {
			r.rec.importObs(rp.Obs, trackGuest+rp.Index, trackGuest+rp.Index, phaseLayer)
			dropped += rp.Obs.Dropped()
		}
		r.rec.importObs(fleetObs, trackFleet, trackMain, phaseLayer)
		dropped += fleetObs.Dropped()
		r.set("obs.dropped", float64(dropped))
		r.set("store.deposit_us", depositUS/fleetReplicas)
		if n, total := r.rec.spanStats("fleet.spawn"); n > 0 {
			r.set("fleet.new_ms", total/1e6/float64(n))
		}
		if n, total := r.rec.spanStats("fleet.attest"); n > 0 {
			r.set("fleet.attest_us", total/1e3/float64(n))
		}
	}
	finishRewrites(r)
	finishKernel(r)
	r.set("heap_mb", heapMB())
	runtime.KeepAlive(f) // the fleet and its store count in the heap
	return setup, job, nil
}

// checkRollout checks the rollout's own record: every replica
// committed, every scrub verdict clean, the load generator saw no
// errors, and each replica's observed service gap is the journaled
// downtime as the load's buckets show it, wherever the load could show
// it (see outage). park is the load offset at which every replica's
// driver parked for its rewrite.
func checkRollout(r *round, rep *dynacut.SLOReport, park uint64) {
	for _, o := range rep.Rollout.Outcomes {
		r.check(o.Outcome == dynacut.OutcomeCommitted, "replica %d: %v (%v)", o.Index, o.Outcome, o.Err)
	}
	for _, sw := range rep.Rollout.Sweeps {
		for _, ra := range sw.Replicas {
			r.check(ra.Verdict == dynacut.VerdictClean, "wave %d scrub: replica %d %v", sw.Wave, ra.Index, ra.Verdict)
		}
	}
	r.tally(rep.Total, rep.Errors, "%d of %d load requests errored", rep.Errors, rep.Total)
	observed := map[int]dynacut.DowntimeSpan{}
	var obsTicks float64
	for _, s := range rep.ObservedSpans {
		observed[s.Replica] = s
		obsTicks += float64(s.Ticks())
	}
	var jTicks float64
	matched := 0
	for _, js := range rep.JournalSpans {
		jTicks += float64(js.Ticks())
		o := outageAt(park, js.Ticks())
		if js.Replica >= len(rep.PerReplica) || !o.sampled(rep.PerReplica[js.Replica]) {
			r.Unsampled++
			continue
		}
		os, ok := observed[js.Replica]
		if r.check(ok && o.explains(os), "replica %d: journal downtime %d vticks from offset %d, observed gap %d to %d; want every bucket from %d to %d dark, and none outside %d to %d",
			js.Replica, js.Ticks(), park, os.Start, os.End, o.mustLo, o.mustHi, o.mayLo, o.mayHi) {
			matched++
		}
	}
	r.check(len(rep.JournalSpans) == fleetReplicas, "journal spans for %d of %d replicas", len(rep.JournalSpans), fleetReplicas)
	r.set("slo.journal_downtime_vticks", jTicks/fleetReplicas)
	r.set("slo.observed_downtime_vticks", obsTicks/fleetReplicas)
	r.set("slo.downtime_match_frac", float64(matched)/fleetReplicas)
}

// saveReplica checkpoints the replica's customized tree into the store
// and returns the deposit time in µs.
func saveReplica(r *round, rp *dynacut.FleetReplica, store *dynacut.PageStore, parent int) (depositUS float64) {
	track := trackGuest + rp.Index
	ta := time.Now()
	set, err := dynacut.Dump(rp.Machine, rp.Cust.PID(), dynacut.DumpOpts{ExecPages: true})
	tb := time.Now()
	r.rec.add("criu.dump", "criu", track, parent, ta, tb)
	if !r.check(err == nil, "replica %d save: %v", rp.Index, err) {
		return 0
	}
	_, err = store.Deposit(set)
	tc := time.Now()
	r.rec.add("store.deposit", "store", track, parent, tb, tc)
	r.check(err == nil, "replica %d deposit: %v", rp.Index, err)
	return micros(tc.Sub(tb))
}

// revertReplica tears the replica's tree down and restores its
// pristine image from the store: the steps of RestoreFromStore, timed
// one by one. It returns the materialize time in µs.
func revertReplica(r *round, rp *dynacut.FleetReplica, store *dynacut.PageStore, parent int) (materializeUS float64) {
	m, track := rp.Machine, trackGuest+rp.Index
	tc := time.Now()
	procs := m.Processes()
	for i := len(procs) - 1; i >= 0; i-- {
		m.Kill(procs[i].PID())
		m.Remove(procs[i].PID())
	}
	td := time.Now()
	r.rec.add("kernel.teardown", "kernel", track, parent, tc, td)
	pristine, err := store.Materialize(rp.PristineID)
	te := time.Now()
	r.rec.add("store.materialize", "store", track, parent, td, te)
	materializeUS = micros(te.Sub(td))
	if !r.check(err == nil, "replica %d materialize: %v", rp.Index, err) {
		return materializeUS
	}
	restored, _, err := dynacut.Restore(m, pristine)
	tf := time.Now()
	r.rec.add("criu.restore", "criu", track, parent, te, tf)
	if r.check(err == nil && len(restored) > 0, "replica %d restore: %v", rp.Index, err) {
		rp.Cust.Rebind(restored[0].PID())
	}
	r.rec.add("core.rebind", "core", track, parent, tf, time.Now())
	return materializeUS
}

// parkOffset is the load offset at which each replica's driver parks
// for its rewrite: the first arrival at or past the hold point. The
// driver pumps the clock to exactly that arrival's offset first.
func parkOffset(arrivals []dynacut.LoadArrival) uint64 {
	for _, a := range arrivals {
		if a.At >= fleetHold {
			return a.At
		}
	}
	return fleetHorizon
}

// outage is where a rewrite falls among a replica's load buckets
// (inclusive bucket indices). The service is down from park until the
// journal span's ticks later: the driver stays parked, and stamps no
// response, for exactly the clock the rewrite advanced. So every
// bucket that lies wholly after park and before park+ticks completes
// nothing: those from mustLo to mustHi. The bucket holding park may
// still complete a response stamped at or before park, and the bucket
// holding park+ticks completes the responses the driver collects when
// it resumes; so the observed gap may also take in those two, mayLo
// and mayHi, and no more. With a Poisson schedule park is rarely on a
// bucket boundary, and the guest's health run after the restore may
// add ticks to the span, so the gap seen in whole buckets can be
// shorter than the journal span by more than one bucket; it can never
// lie outside these bounds.
type outage struct{ mustLo, mustHi, mayLo, mayHi uint64 }

func outageAt(park, ticks uint64) outage {
	end := park + ticks
	return outage{mustLo: park/fleetBucket + 1, mustHi: end/fleetBucket - 1, mayLo: park / fleetBucket, mayHi: end / fleetBucket}
}

// sampled reports whether the load offered at least one request in
// every bucket the outage must darken. Load sees a service gap only
// through its arrivals: a bucket without any completes nothing whether
// the replica is up or not, so it ends the observed gap early. A
// Poisson schedule with a mean gap of a tenth of a bucket leaves a
// bucket empty with probability e^-10, which happened in about one
// round in 8000 on the development host. Such a replica's spans cannot
// be compared.
func (o outage) sampled(load *dynacut.LoadResult) bool {
	for b := o.mustLo; b <= o.mustHi; b++ {
		if b >= uint64(len(load.Buckets)) || load.Buckets[b].Offered == 0 {
			return false
		}
	}
	return true
}

// explains reports whether the observed gap s covers every bucket the
// outage must darken and none it cannot reach.
func (o outage) explains(s dynacut.DowntimeSpan) bool {
	if s.End <= s.Start {
		return false
	}
	first, last := s.Start/fleetBucket, s.End/fleetBucket-1
	return first >= o.mayLo && last <= o.mayHi && first <= o.mustLo && last >= o.mustHi
}
