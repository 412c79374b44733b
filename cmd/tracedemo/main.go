// Command tracedemo runs one full customization cycle under fault
// injection with the observability layer attached, then prints the
// human-readable phase summary and (optionally) writes the JSONL
// trace. It is the quickest way to see the rewrite pipeline's
// timeline: checkpoint → edit → validate → kill → restore (fails,
// injected) → rollback, then the caller's second call → commit, with
// every phase and fault stamped on the machine's virtual clock.
//
// Usage:
//
//	go run ./cmd/tracedemo [-o trace.jsonl] [-seed 42]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/dynacut/dynacut"
)

func run(out string, seed int64) error {
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

	// Arm a transient restore fault: the first rewrite's restore fails
	// mid-transaction and rolls back, and the second call commits — the
	// most informative timeline a short run can produce.
	in := dynacut.NewFaultInjector(seed)
	in.FailTransient("criu.restore.", 1, 1)
	sess.Machine.SetFaultHook(in)

	o := dynacut.NewObserver(0)
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{
		RedirectTo: errAddr,
		Observer:   o,
	})
	if err != nil {
		return err
	}
	// Rewrite makes one pass. A rolled-back rewrite leaves the guest
	// serving its pre-edit code, so retrying is just calling again.
	calls := 1
	stats, err := cust.DisableBlocks("webdav-write", blocks, dynacut.PolicyBlockEntry)
	if errors.Is(err, dynacut.ErrRolledBack) {
		fmt.Printf("rewrite rolled back: %v\n", err)
		calls++
		stats, err = cust.DisableBlocks("webdav-write", blocks, dynacut.PolicyBlockEntry)
	}
	if err != nil {
		return fmt.Errorf("rewrite: %w", err)
	}
	// Exercise the customized guest so the trap counters move.
	if resp := sess.MustRequest("PUT /f data\n"); resp != "" {
		fmt.Printf("PUT after customization -> %q\n", firstLine(resp))
	}
	if resp := sess.MustRequest("GET /\n"); resp != "" {
		fmt.Printf("GET after customization -> %q\n", firstLine(resp))
	}

	fmt.Printf("\nrewrite committed: calls=%d rolledBack=%v pagesDumped=%d injectedFaults=%d\n\n",
		calls, stats.RolledBack, stats.PagesDumped, in.Injected())
	fmt.Println(o.Summary())

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := o.WriteJSONL(f); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace events to %s\n", o.Len(), out)
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
	seed := flag.Int64("seed", 42, "fault-injector seed")
	flag.Parse()
	if err := run(*out, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "tracedemo: %v\n", err)
		os.Exit(1)
	}
}
