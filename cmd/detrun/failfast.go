package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"repro/internal/det"
)

// lastRuntime holds the most recently built det-backed runtime (stored
// by build), so the -timeout dump can include its diagnostic state —
// per-thread phase, clock and held locks, plus the arbiter's token state —
// regardless of which mode (direct, -verify, -compare) built it.
var lastRuntime atomic.Pointer[det.Runtime]

// dumpDiagnostics writes the failure bundle to stderr: the triggering
// report, the runtime's deterministic state snapshot when available, and
// every goroutine stack — everything needed to see what each thread was
// waiting on instead of an opaque hang.
func dumpDiagnostics(reason string) {
	fmt.Fprintln(os.Stderr, "detrun:", reason)
	if rt := lastRuntime.Load(); rt != nil {
		fmt.Fprintln(os.Stderr, rt.DumpState())
	}
	buf := make([]byte, 1<<20)
	n := goruntime.Stack(buf, true)
	fmt.Fprintf(os.Stderr, "goroutine stacks:\n%s\n", buf[:n])
}

// armTimeout bounds the process's real wall clock: if the run has not
// completed within d, dump diagnostics and exit non-zero instead of
// hanging forever. It is the one bound on a hung run, on either host: the
// simulation host proves a deadlock itself, so the timeout is what catches
// a livelock, and a real-host run that stalls.
func armTimeout(d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		dumpDiagnostics(fmt.Sprintf("timeout: run did not complete within %s", d))
		os.Exit(2)
	})
}
