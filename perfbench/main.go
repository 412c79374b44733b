// Command perfbench is the repository benchmark: three seeded
// workloads driven through the public API and the internal layers'
// exported functions, with every output checked.
//
//	perfbench --workload toggle|spec|fleet-load --seed N --seconds S --trace 0|1
//
// A run repeats rounds (set-up, then the workload's job) until S
// seconds have passed. Rounds run in a series of child processes of
// this binary, each running rounds for about two seconds, so
// per-process effects (map hash seeds, heap layout) vary across the
// run and the medians average over them instead of biasing it. With --trace 0 every round is untraced and the
// run reports the gated end-to-end metrics. With --trace 1 the child
// processes alternate untraced and traced: traced rounds give the
// per-layer metrics and a Chrome trace of the last traced round under
// .bench_build/traces/, and the gap between the two kinds of round is
// the tracing overhead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// round is what one round of a workload measured. The exported fields
// travel from the round's process to the run's as JSON.
type round struct {
	Traced    bool
	Attempted int
	Failed    int
	Failures  []string
	Unsampled int // downtime spans fleet-load could not cross-check
	Samples   map[string][]float64
	Values    map[string]float64

	rng  *rand.Rand
	rec  *recorder // nil when untraced
	root int       // the round's root span
}

func newRound(seed int64, index int, traced bool) *round {
	r := &round{
		Traced:  traced,
		Samples: map[string][]float64{},
		Values:  map[string]float64{},
		rng:     rand.New(rand.NewSource(seed*7919 + int64(index))),
		root:    -1,
	}
	if traced {
		r.rec = newRecorder()
		r.root = r.rec.begin("round", "bench", trackMain, -1)
	}
	return r
}

func (r *round) sample(name string, v float64) { r.Samples[name] = append(r.Samples[name], v) }
func (r *round) set(name string, v float64)    { r.Values[name] = v }

// opPrefix keys a round's per-guest unit operations (BENCHMARK_NOTES.md).
const opPrefix = "op_us/"

// op records one unit operation of the workload on guest.
func (r *round) op(guest string, us float64) { r.sample(opPrefix+guest, us) }

// finishOp sets the round's op_us: the geometric mean over guests of
// each guest's median operation, so every guest weighs the same
// however many operations it ran and however long they take.
func (r *round) finishOp() {
	var logs float64
	n := 0
	for k, xs := range r.Samples {
		if strings.HasPrefix(k, opPrefix) {
			logs += math.Log(median(xs))
			n++
			delete(r.Samples, k)
		}
	}
	if n > 0 {
		r.set("op_us", math.Exp(logs/float64(n)))
	}
}

// check counts one attempted operation and, if !ok, one failure.
func (r *round) check(ok bool, format string, args ...any) bool {
	failed := 0
	if !ok {
		failed = 1
	}
	r.tally(1, failed, format, args...)
	return ok
}

// tally counts attempted operations of which failed failed, keeping
// the first few failure descriptions.
func (r *round) tally(attempted, failed int, format string, args ...any) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 && len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// workload runs one round: set-up, then the job, recording into r.
// It returns the set-up and job durations; an error means the round
// could not run at all.
type workload func(r *round) (setup, job time.Duration, err error)

var workloads = map[string]workload{
	"toggle":     runToggle,
	"spec":       runSpec,
	"fleet-load": runFleetLoad,
}

func main() {
	name := flag.String("workload", "", "toggle, spec or fleet-load")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measurement time")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics)")
	first := flag.Int("round", -1, "run rounds from this index for about two seconds, in this process, and print them as JSON")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *first >= 0 {
		var rounds []*round
		start := time.Now()
		for i := *first; i == *first || time.Since(start) < childSlice; i++ {
			r, err := runRound(wl, *seed, i, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %v\n", *name, i, err)
				os.Exit(1)
			}
			rounds = append(rounds, r)
		}
		err := json.NewEncoder(os.Stdout).Encode(rounds)
		if last := rounds[len(rounds)-1]; err == nil && last.rec != nil {
			err = last.rec.writeChrome(chromePath(*name, *seed))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			os.Exit(1)
		}
		return
	}

	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("host: %s\n", hostInfo())
	fmt.Printf("workload %s seed %d seconds %d trace %d: %d untraced + %d traced rounds, %d attempted, %d failed, %d downtime spans not cross-checked\n",
		*name, *seed, *seconds, *trace, len(res.plain), len(res.traced), res.attempted, res.failed, res.unsampled)
	for _, f := range res.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	if *trace == 1 {
		fmt.Printf("chrome trace of the last traced round: %s\n", chromePath(*name, *seed))
	}
	out := map[string]map[string]any{}
	for _, mt := range catalog {
		switch {
		case mt.scope == gated && *trace == 0, mt.scope == layer && *trace == 1:
			v := res.value(mt)
			fmt.Printf("%-34s %14.4f %-13s %-9s %s\n", mt.name, v, mt.unit, mt.kind, mt.scope)
			out[mt.name] = map[string]any{"value": v, "unit": mt.unit}
		case mt.scope == figure:
			fmt.Printf("%-34s %14.4f %-13s %-9s %s\n", mt.name, res.value(mt), mt.unit, mt.kind, mt.scope)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// childSlice is how long one child process keeps running rounds.
const childSlice = 2 * time.Second

// runRound runs one round in this process. A traced round also gets
// its per-layer split.
func runRound(wl workload, seed int64, index int, traced bool) (*round, error) {
	r := newRound(seed, index, traced)
	setup, job, err := wl(r)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup.Seconds())
	r.set("job_s", job.Seconds())
	r.finishOp()
	if !traced {
		return r, nil
	}
	r.rec.end(r.root)
	self := r.rec.selfTimes()
	var total float64
	for _, v := range self {
		total += v
	}
	for _, l := range []string{"build", "kernel", "criu", "store", "crit", "core", "fleet", "loadgen", "trace", "coverage"} {
		r.set("split."+l+"_frac", frac(self[l], total))
	}
	r.set("split.unattributed_frac", frac(self["bench"], total))
	return r, nil
}

// result is a whole run: its untraced and traced rounds.
type result struct {
	plain, traced     []*round
	attempted, failed int
	failures          []string
	unsampled         int
}

// value computes a metric from the rounds of its scope: layer metrics
// from traced rounds, the rest from untraced ones. failed_frac is the
// whole run's failed / attempted, traced rounds included.
func (res *result) value(mt metric) float64 {
	switch {
	case mt.name == "failed_frac":
		return frac(float64(res.failed), float64(res.attempted))
	case mt.scope == layer:
		return aggregate(mt, res.traced)
	}
	return aggregate(mt, res.plain)
}

// chromePath is where a traced run writes the Chrome trace of its last
// traced round.
func chromePath(workload string, seed int64) string {
	return fmt.Sprintf(".bench_build/traces/%s-seed%d.json", workload, seed)
}

// run repeats child processes of this binary, each running rounds for
// childSlice, until budget has passed (with tracing, at least one
// untraced and one traced child), then derives the run-level ratios.
func run(name string, seed int64, budget time.Duration, trace bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &result{}
	start := time.Now()
	var plainJob, tracedJob []float64
	for child, i := 0, 0; child == 0 || (trace && child < 2) || time.Since(start) < budget; child++ {
		traced := trace && child%2 == 1
		args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-round", strconv.Itoa(i)}
		if traced {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("rounds from %d: %w", i, err)
		}
		var rounds []*round
		if err := json.Unmarshal(out, &rounds); err != nil {
			return nil, fmt.Errorf("rounds from %d: %w", i, err)
		}
		i += len(rounds)
		for _, r := range rounds {
			if traced {
				res.traced = append(res.traced, r)
				tracedJob = append(tracedJob, r.Values["job_s"])
			} else {
				res.plain = append(res.plain, r)
				plainJob = append(plainJob, r.Values["job_s"])
			}
			res.attempted += r.Attempted
			res.failed += r.Failed
			res.unsampled += r.Unsampled
			for _, f := range r.Failures {
				if len(res.failures) < 10 {
					res.failures = append(res.failures, f)
				}
			}
		}
	}
	if trace {
		overhead := frac(median(tracedJob), median(plainJob)) - 1
		for _, r := range res.traced {
			r.set("obs.overhead_frac", overhead)
		}
	}
	return res, nil
}

// heapMB is the live heap after a full collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// allocCount is the process's cumulative heap allocation count.
func allocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hostInfo names the host a run measured on.
func hostInfo() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cores=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu)
}
