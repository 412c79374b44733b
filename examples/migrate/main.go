// Migrate example: CRIU's original job — live process migration —
// plus DynaCut's twist. A web server is customized (write methods
// blocked, init code wiped) on machine A, dumped to a serialized
// image blob, shipped to machine B together with its binaries, and
// restored there. The customization travels with the image: the
// restored server still answers 403 to PUT without ever having been
// rewritten on B. Both the restore and the original boot are timed;
// which one is faster depends on how much init code the guest runs.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/dynacut/dynacut"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{
		Name: "lighttpd", Port: 8080, InitRoutines: 64,
	})
	if err != nil {
		return err
	}

	// --- Machine A: boot, customize, dump -----------------------------
	bootStart := time.Now()
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		return err
	}
	bootTime := time.Since(bootStart)

	blocks, err := sess.ProfileFeatures(
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /d\n"},
		[]string{"PUT /f x\n", "DELETE /f\n"},
	)
	if err != nil {
		return err
	}
	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		return err
	}
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{
		RedirectTo: errAddr,
	})
	if err != nil {
		return err
	}
	if _, err := cust.DisableBlocks("webdav-write", blocks, dynacut.PolicyBlockEntry); err != nil {
		return err
	}
	fmt.Printf("machine A: booted in %v, blocked %d WebDAV blocks\n", bootTime, len(blocks))

	set, err := dynacut.Dump(sess.Machine, cust.PID(), dynacut.DumpOpts{ExecPages: true})
	if err != nil {
		return err
	}
	blob := set.Marshal()
	fmt.Printf("machine A: dumped customized image (%d bytes serialized)\n", len(blob))

	// --- Ship to machine B --------------------------------------------
	dst := dynacut.NewMachine()
	dst.AddBinary(app.Exe)
	dst.AddBinary(app.Libc)
	restoreStart := time.Now()
	shipped, err := dynacut.UnmarshalImages(blob)
	if err != nil {
		return err
	}
	if _, _, err := dynacut.Restore(dst, shipped); err != nil {
		return err
	}
	restoreTime := time.Since(restoreStart)
	fmt.Printf("machine B: restored in %v; machine A booted in %v (boot/restore = %.2f)\n",
		restoreTime, bootTime, float64(bootTime)/float64(restoreTime))

	// --- The customization travelled with the image -------------------
	probe := func(req string) string {
		conn, err := dst.Dial(app.Config.Port)
		if err != nil {
			return "dial error: " + err.Error()
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(req)); err != nil {
			return "write error"
		}
		dst.RunUntil(func() bool { return len(conn.ReadAllPeek()) > 0 }, 2_000_000)
		return strings.TrimSpace(string(conn.ReadAll()))
	}
	fmt.Printf("machine B: %-14q -> %q\n", "GET /", probe("GET /\n"))
	fmt.Printf("machine B: %-14q -> %q\n", "PUT /f evil", probe("PUT /f evil\n"))
	fmt.Println("the INT3 patches and the injected SIGTRAP handler survived migration.")
	return nil
}
