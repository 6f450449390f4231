package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// sizes fixes how much work a pass does besides the timed window. full is
// the ledger's and the driver's; quick is the smoke test's.
type sizes struct {
	setups     int // set-up repetitions; setup_s is their median
	warmups    int // untimed warm-up runs per runtime, in each set-up
	tracedRuns int // runs of the traced pass
	sweepReads int // reads of one post-catch-up sweep
	probeScale int // divides the probes' iteration counts
}

var (
	fullSizes  = sizes{setups: 5, warmups: 3, tracedRuns: 40, sweepReads: 20_000, probeScale: 1}
	quickSizes = sizes{setups: 1, warmups: 1, tracedRuns: 3, sweepReads: 2_000, probeScale: 20}
)

// simShare is the part of the window spent on simhost runs, at its end:
// the last 8 s of a 30 s window.
const simShare = 8.0 / 30.0

// options selects one pass of the suite.
type options struct {
	workloads []*workloadDef
	seed      int64
	seconds   int
	quick     bool
	// layers adds the traced pass and the probes (the driver's --trace 1);
	// without it the pass measures the end-to-end metrics only.
	layers bool
	outDir string
}

// pass is one pass of the suite in the making: a session, the ledger it
// fills, and the scratch directory to remove when it ends.
type pass struct {
	o options
	s *session
	l *ledger
}

func newPass(o options) (*pass, error) {
	if err := os.MkdirAll(o.outDir, 0o777); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	s := &session{seed: o.seed, sz: fullSizes, tmp: tmp}
	if o.quick {
		s.sz = quickSizes
	}
	return &pass{o: o, s: s, l: &ledger{Stamp: newStamp(o)}}, nil
}

// close removes the scratch directory.
func (p *pass) close() { os.RemoveAll(p.s.tmp) }

// finish runs the probes and closes the ledger.
func (p *pass) finish() (*ledger, error) {
	if p.o.layers {
		rows, err := probes(p.s)
		if err != nil {
			return nil, err
		}
		p.l.Rows = append(p.l.Rows, rows...)
	}
	p.l.Attempted, p.l.Failed, p.l.Failures = p.s.attempted, p.s.failed, p.s.failures
	return p.l, nil
}

// runSuite makes one pass: every selected workload, then the probes.
func runSuite(o options) (*ledger, error) {
	p, err := newPass(o)
	if err != nil {
		return nil, err
	}
	defer p.close()
	for _, def := range o.workloads {
		if err := p.runWorkload(def); err != nil {
			return nil, err
		}
	}
	return p.finish()
}

// runWorkload runs one workload: set-ups, the timed window and, with
// layers, the traced pass; its rows go to the ledger.
func (p *pass) runWorkload(def *workloadDef) error {
	s, l := p.s, p.l
	prog, err := def.bind(s.seed)
	if err != nil {
		return err
	}
	window := time.Duration(p.o.seconds) * time.Second
	if p.o.quick {
		window = 600 * time.Millisecond
	}
	b := &bench{s: s, prog: prog}
	attempted0, failed0 := s.attempted, s.failed
	setup := b.setups()
	win := b.window(window)
	rows := b.endToEndRows(setup, win)
	var layerRows []row
	if p.o.layers {
		tr := newSpanRecorder()
		traced := b.tracedPass(tr)
		layerRows = b.layerRows(win, traced)
		l.Spans = append(l.Spans, tr.stats(def.Name)...)
		path := filepath.Join(p.o.outDir, "trace_"+def.Name+".json")
		if err := tr.writeChromeTrace(path, "bench "+def.Name); err != nil {
			return err
		}
	}
	// error_rate covers everything the workload attempted, the traced
	// pass too.
	attempted := s.attempted - attempted0
	errRow := fill(def.Name, endToEnd, map[string]row{
		"error_rate": {Value: float64(s.failed-failed0) / float64(attempted), N: int(attempted)},
	})
	l.Rows = append(append(append(l.Rows, rows...), errRow...), layerRows...)
	return nil
}

// setups repeats the set-up a workload needs before its first timed run
// and returns each repetition's seconds: binding the program to the seed,
// a scratch directory, and the warm-up runs on every runtime. (The probes
// run fixed iteration counts, so there is nothing to calibrate.)
func (b *bench) setups() []float64 {
	var secs []float64
	for i := 0; i < b.s.sz.setups; i++ {
		t0 := time.Now()
		if _, err := b.prog.def.bind(b.s.seed); err != nil {
			b.s.fail(1, "%s set-up: %v", b.prog.def.Name, err)
		}
		dir := b.s.logDir()
		if err := os.MkdirAll(dir, 0o777); err != nil {
			b.s.fail(1, "%s set-up: %v", b.prog.def.Name, err)
		}
		os.RemoveAll(dir)
		for w := 0; w < b.s.sz.warmups; w++ {
			b.consequence(nil, -1, false)
			b.pthreads()
			b.simulated()
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs
}

// windowRec is the timed window's samples.
type windowRec struct {
	runs      []runRec  // Consequence, real host
	pthMS     []float64 // pthreads, real host, interleaved with runs
	simMS     []float64 // Consequence, simhost: host wall time
	virtualNS int64     // modeled makespan; identical on every sim run
}

// window runs the program closed-loop, one run in flight, for d: real-host
// Consequence and pthreads runs alternate so machine noise hits both
// sides of their ratio, then simhost runs take the last simShare of it.
// Every phase makes at least one run.
func (b *bench) window(d time.Duration) windowRec {
	var w windowRec
	start := time.Now()
	realEnd := start.Add(time.Duration(float64(d) * (1 - simShare)))
	for first := true; first || time.Now().Before(realEnd); first = false {
		if rec, err := b.consequence(nil, len(w.runs), false); err == nil {
			w.runs = append(w.runs, rec)
		}
		if ns, err := b.pthreads(); err == nil {
			w.pthMS = append(w.pthMS, float64(ns)/1e6)
		}
	}
	end := start.Add(d)
	for first := true; first || time.Now().Before(end); first = false {
		ns, virtual, err := b.simulated()
		if err != nil {
			continue
		}
		if w.virtualNS != 0 && virtual != w.virtualNS {
			b.s.fail(1, "%s simhost: modeled makespan %d ns differs from %d ns", b.prog.def.Name, virtual, w.virtualNS)
		}
		w.simMS = append(w.simMS, float64(ns)/1e6)
		w.virtualNS = virtual
	}
	return w
}

// tracedPass runs the workload again with an observer attached and the
// benchmark's own spans recorded. Only per-layer metrics come from it.
func (b *bench) tracedPass(tr *spanRecorder) []runRec {
	var runs []runRec
	for i := 0; i < b.s.sz.tracedRuns; i++ {
		if rec, err := b.consequence(tr, i, true); err == nil {
			runs = append(runs, rec)
		}
	}
	return runs
}

// each collects one number per run.
func each(runs []runRec, f func(runRec) float64) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return xs
}

func runMS(runs []runRec) []float64 {
	return each(runs, func(r runRec) float64 { return float64(r.wallNS) / 1e6 })
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEndRows derives the end-to-end metrics from the untraced window.
func (b *bench) endToEndRows(setup []float64, w windowRec) []row {
	name := b.prog.def.Name
	if len(w.runs) == 0 || len(w.pthMS) == 0 || len(w.simMS) == 0 {
		// Every run failed and is already counted; there is nothing to
		// derive a timing from.
		return nil
	}
	n := len(w.runs)
	ms := runMS(w.runs)
	p50, pth := median(ms), median(w.pthMS)
	syncOps := sum(each(w.runs, func(r runRec) float64 { return float64(r.stats.SyncOps) }))
	vals := map[string]row{
		"setup_s":              {Value: median(setup), N: len(setup)},
		"run_ms_p50":           {Value: p50, N: n},
		"syncops_per_s":        {Value: syncOps / (sum(ms) / 1e3), N: n},
		"slowdown_vs_pthreads": {Value: p50 / pth, N: n, Base: pth},
		"alloc_kb_per_run":     {Value: median(each(w.runs, func(r runRec) float64 { return float64(r.mem.allocBytes) / 1024 })), N: n},
		"allocs_per_run":       {Value: median(each(w.runs, func(r runRec) float64 { return float64(r.mem.mallocs) })), N: n},
		"sim_run_ms_p50":       {Value: median(w.simMS), N: len(w.simMS)},
		"virtual_ms":           {Value: float64(w.virtualNS) / 1e6, N: len(w.simMS)},
	}
	if b.prog.def.Durable {
		vals["reads_per_s"] = row{Value: median(each(w.runs, func(r runRec) float64 {
			return float64(r.durable.sweep.reads) / (float64(r.durable.sweep.readNS) / 1e9)
		})), N: n}
	}
	return fill(name, endToEnd, vals)
}

// fill turns computed values into rows in defs order, stamping workload,
// name and unit from the definition; a definition without a value is
// skipped (durable-only metrics elsewhere).
func fill(workload string, defs []metricDef, vals map[string]row) []row {
	var rows []row
	for _, d := range defs {
		r, ok := vals[d.Name]
		if !ok {
			continue
		}
		r.Workload, r.Metric, r.Unit = workload, d.Name, d.Unit
		rows = append(rows, r)
	}
	for name := range vals {
		if !hasDef(defs, name) {
			panic(fmt.Sprintf("bench: value for undefined metric %q", name))
		}
	}
	return rows
}

func hasDef(defs []metricDef, name string) bool {
	_, ok := findDef(defs, name)
	return ok
}
