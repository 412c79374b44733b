package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/dynacut/dynacut/internal/obs"
)

// A traced round records one span around every call the benchmark
// makes into a layer, then imports the phase spans the program's own
// obs observers already emit (checkpoint, decode, edit, validate,
// kill, restore, health; fleet spawn, wave, attest). A layer's self
// time is the time its spans cover minus what their children cover;
// the root's self time is the part no layer accounts for.

// Tracks are the Chrome-trace threads spans are drawn on.
const (
	trackMain  = 0
	trackFleet = 1
	// trackGuest+i is toggle guest i or fleet replica i.
	trackGuest = 10
)

// span is one timed interval, in Unix nanoseconds.
type span struct {
	name, layer string
	track       int
	start, end  int64
	parent      int // index into recorder.spans; -1 for the root
	vclock      uint64
}

// point is an instantaneous program event (obs point or fault).
type point struct {
	name   string
	track  int
	at     int64
	n      int64
	vclock uint64
}

// recorder holds one traced round's spans. A nil *recorder is an
// untraced round: every method is a no-op, and begin returns -1.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	points []point
	tracks map[int]string
}

func newRecorder() *recorder { return &recorder{tracks: map[int]string{trackMain: "benchmark"}} }

func (rc *recorder) nameTrack(track int, name string) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	rc.tracks[track] = name
	rc.mu.Unlock()
}

// begin opens a span starting now and returns its index.
func (rc *recorder) begin(name, layer string, track, parent int) int {
	if rc == nil {
		return -1
	}
	now := time.Now().UnixNano()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.spans = append(rc.spans, span{name: name, layer: layer, track: track, start: now, end: now, parent: parent})
	return len(rc.spans) - 1
}

// end closes span i now.
func (rc *recorder) end(i int) {
	if rc == nil || i < 0 {
		return
	}
	now := time.Now().UnixNano()
	rc.mu.Lock()
	rc.spans[i].end = now
	rc.mu.Unlock()
}

// add records a span the caller already timed and returns its index.
func (rc *recorder) add(name, layer string, track, parent int, t0, t1 time.Time) int {
	if rc == nil {
		return -1
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.spans = append(rc.spans, span{name: name, layer: layer, track: track,
		start: t0.UnixNano(), end: t1.UnixNano(), parent: parent})
	return len(rc.spans) - 1
}

// importObs turns an observer's ring into spans and points on track.
// Each phase span's parent is the innermost recorded span on
// parentTrack that contains it, else on the main track. layerOf maps a
// phase name to its layer. Import a fleet-level observer after the
// replicas' so its spans adopt what ran inside them.
func (rc *recorder) importObs(o *obs.Observer, track, parentTrack int, layerOf func(string) string) {
	if rc == nil || o == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	onTrack := func(track int) []int { // spans on track, by start
		var out []int
		for i, s := range rc.spans {
			if s.track == track {
				out = append(out, i)
			}
		}
		sort.SliceStable(out, func(a, b int) bool { return rc.spans[out[a]].start < rc.spans[out[b]].start })
		return out
	}
	within := func(cands []int, start, end int64) int {
		k := sort.Search(len(cands), func(k int) bool { return rc.spans[cands[k]].start > start }) - 1
		if k < 0 {
			return -1
		}
		p := cands[k]
		for p >= 0 && !(rc.spans[p].start <= start && rc.spans[p].end >= end) {
			p = rc.spans[p].parent
		}
		return p
	}
	own, main := onTrack(parentTrack), onTrack(trackMain)
	parentOf := func(start, end int64) int {
		if p := within(own, start, end); p >= 0 {
			return p
		}
		return within(main, start, end)
	}
	type key struct {
		name    string
		attempt int
	}
	open := map[key]obs.Event{}
	for _, ev := range o.Events() {
		switch ev.Kind {
		case obs.KindPhaseStart:
			open[key{ev.Name, ev.Attempt}] = ev
		case obs.KindPhaseEnd:
			k := key{ev.Name, ev.Attempt}
			st, ok := open[k]
			if !ok {
				continue // its start was overwritten in the ring
			}
			delete(open, k)
			p := parentOf(st.WallNS, ev.WallNS)
			x := len(rc.spans)
			rc.spans = append(rc.spans, span{name: ev.Name, layer: layerOf(ev.Name), track: track,
				start: st.WallNS, end: ev.WallNS, parent: p, vclock: st.VClock})
			if track != parentTrack {
				// A span drawn on its own track (a fleet wave) adopts
				// its siblings on other tracks that ran inside it (the
				// replica rewrites of that wave).
				for i := range rc.spans[:x] {
					if s := &rc.spans[i]; s.parent == p && s.track != parentTrack && s.start >= st.WallNS && s.end <= ev.WallNS {
						s.parent = x
					}
				}
			}
		default:
			rc.points = append(rc.points, point{name: ev.Name, track: track, at: ev.WallNS, n: ev.N, vclock: ev.VClock})
		}
	}
}

// selfNS returns each span's self time in nanoseconds: its duration
// minus the union of its children's intervals.
func (rc *recorder) selfNS() []float64 {
	children := make([][]int, len(rc.spans))
	for i, s := range rc.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]float64, len(rc.spans))
	for i, s := range rc.spans {
		self[i] = float64(s.end-s.start) - covered(rc.spans, children[i], s.start, s.end)
	}
	return self
}

// selfTimes returns each layer's summed self time in nanoseconds.
func (rc *recorder) selfTimes() map[string]float64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := map[string]float64{}
	for i, v := range rc.selfNS() {
		out[rc.spans[i].layer] += v
	}
	return out
}

// selfOf returns the summed self time (ns) of the spans named name.
func (rc *recorder) selfOf(name string) float64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var total float64
	for i, v := range rc.selfNS() {
		if rc.spans[i].name == name {
			total += v
		}
	}
	return total
}

// covered is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, idx []int, lo, hi int64) float64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].start, lo), min(spans[i].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if started {
		total += curB - curA
	}
	return float64(total)
}

// spanStats returns the count and summed duration (ns) of the spans
// with this name.
func (rc *recorder) spanStats(name string) (n int, total float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, s := range rc.spans {
		if s.name == name {
			n++
			total += float64(s.end - s.start)
		}
	}
	return n, total
}

// chromeEvent is one Chrome trace-event record (the JSON Perfetto and
// chrome://tracing open).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChrome writes the round's spans and points as a Chrome
// trace-event JSON file, timestamps in microseconds from the root
// span's start.
func (rc *recorder) writeChrome(path string) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.spans) == 0 {
		return nil
	}
	base := rc.spans[0].start
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }
	evs := make([]chromeEvent, 0, len(rc.spans)+len(rc.points)+len(rc.tracks))
	for t, name := range rc.tracks {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: t, Args: map[string]any{"name": name}})
	}
	for _, s := range rc.spans {
		ev := chromeEvent{Name: s.name, Cat: s.layer, Ph: "X", TS: us(s.start), Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: s.track}
		if s.vclock != 0 {
			ev.Args = map[string]any{"vclock": s.vclock}
		}
		evs = append(evs, ev)
	}
	for _, p := range rc.points {
		evs = append(evs, chromeEvent{Name: p.name, Cat: "obs", Ph: "i", Scope: "t", TS: us(p.at), PID: 1, TID: p.track,
			Args: map[string]any{"n": p.n, "vclock": p.vclock}})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// phaseLayer maps the program's obs phase names to layers.
func phaseLayer(name string) string {
	switch name {
	case "checkpoint", "decode", "restore":
		return "criu"
	case "edit":
		return "crit"
	case "validate", "kill", "health", "rollback", "attest", "attest.repair":
		return "core"
	default:
		return "fleet" // fleet.spawn, fleet.wave, fleet.attest
	}
}
