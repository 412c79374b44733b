// Command supervisedemo runs the closed-loop supervisor end to end
// and prints its decision timeline: a feature is disabled through the
// supervisor, undesired traffic drives the trap counters into a
// storm, and the watchdog-driven control loop walks the degradation
// ladder — re-enabling the offending feature, opening its circuit
// breaker, and quarantining it from further disables until probation
// expires. The timeline is reconstructed from the observability
// trace, so every decision shown is stamped on the machine's virtual
// clock.
//
// Usage:
//
//	go run ./cmd/supervisedemo [-o supervise.jsonl] [-puts 8]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/dynacut/dynacut"
)

func run(out string, puts int) error {
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080})
	if err != nil {
		return err
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		return err
	}
	blocks, err := sess.ProfileFeatures(
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"},
	)
	if err != nil {
		return err
	}
	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		return err
	}

	o := dynacut.NewObserver(0)
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{
		RedirectTo: errAddr,
		Observer:   o,
	})
	if err != nil {
		return err
	}
	sup := dynacut.NewSupervisor(sess.Machine, cust, dynacut.SupervisorConfig{
		Canary:   sess.Canary("GET /\n", "200"),
		Observer: o,
	})
	if err := sup.Attach(); err != nil {
		return err
	}
	defer sup.Detach()

	fmt.Println("== disable webdav-write through the supervisor ==")
	if _, err := sup.DisableFeature("webdav-write", blocks, dynacut.PolicyBlockEntry); err != nil {
		return fmt.Errorf("disable: %w", err)
	}
	fmt.Printf("PUT  -> %q (blocked)\n", firstLine(sess.MustRequest("PUT /f data\n")))
	fmt.Printf("GET  -> %q\n\n", firstLine(sess.MustRequest("GET /\n")))

	fmt.Printf("== hammer %d PUTs: drive the trap counters into a storm ==\n", puts)
	for i := 0; i < puts; i++ {
		resp := firstLine(sess.MustRequest("PUT /f data\n"))
		note := ""
		if sess.LastErr != nil {
			note = fmt.Sprintf("  (%v)", sess.LastErr)
		}
		level := sup.Status().Level
		fmt.Printf("PUT #%d -> %q  level=%d%s\n", i+1, resp, level, note)
		if level >= 2 {
			break
		}
	}

	fmt.Println("\n== aftermath ==")
	fmt.Printf("PUT  -> %q (feature re-enabled by the ladder)\n",
		firstLine(sess.MustRequest("PUT /g data\n")))
	if _, err := sup.DisableFeature("webdav-write", blocks, dynacut.PolicyBlockEntry); err != nil {
		switch {
		case errors.Is(err, dynacut.ErrQuarantined):
			fmt.Printf("re-disable refused: %v\n", err)
		default:
			fmt.Printf("re-disable failed: %v\n", err)
		}
	} else {
		fmt.Println("re-disable accepted (breaker closed again)")
	}

	st := sup.Status()
	fmt.Printf("\nsupervisor: level=%d disarmed=%v restored=%v windowHits=%d\n",
		st.Level, st.Disarmed, st.Restored, st.WindowHits)
	names := make([]string, 0, len(st.Breakers))
	for name := range st.Breakers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		br := st.Breakers[name]
		fmt.Printf("breaker %-14s state=%-8s strikes=%d trips=%d probation=%d\n",
			name, br.State, br.Strikes, br.Trips, br.Probation)
	}

	fmt.Println("\n== supervisor timeline (virtual clock) ==")
	for _, ev := range o.Events() {
		if !strings.HasPrefix(ev.Name, "supervise.") {
			continue
		}
		line := fmt.Sprintf("%10d  %-11s %s", ev.VClock, ev.Kind, ev.Name)
		if ev.N != 0 {
			line += fmt.Sprintf("  n=%d", ev.N)
		}
		if ev.Err != "" {
			line += "  err=" + ev.Err
		}
		fmt.Println(line)
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := o.WriteJSONL(f); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d trace events to %s\n", o.Len(), out)
	}
	return nil
}

func firstLine(s string) string {
	for i := range s {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

func main() {
	out := flag.String("o", "", "write the JSONL trace to this file")
	puts := flag.Int("puts", 8, "how many PUTs to hammer")
	flag.Parse()
	if err := run(*out, *puts); err != nil {
		fmt.Fprintf(os.Stderr, "supervisedemo: %v\n", err)
		os.Exit(1)
	}
}
