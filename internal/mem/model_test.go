package mem

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The package's one reference model. An op sequence runs over the public
// surface of a segment, and beside it a model keeps one flat byte array
// per version a reader can still read, the per-byte diff of each version a
// workspace may still pull, and, for each workspace, its version and the
// bytes it has stored since its last commit, each with its twin. Every
// aliasing optimization of the package — lent twins, write windows, the
// per-page chain lookup, in-place and packed runs, pruning, recycled
// buffers — must be invisible against it.
//
// Last writer wins in version order, and the twin rule decides what a
// commit publishes: a stored byte only where it differs from its twin. A
// byte's twin is its value at the workspace's version when it was first
// stored, and an update moves the twin, and the byte, to a remote store
// only while the two agree. So a store of the value a byte already holds
// publishes nothing, and neither does one that puts the twin's value back
// after an update left the twin behind a remote store.

// opKind is one operation of a model sequence.
type opKind uint8

const (
	// These address a workspace, and run as opSnapshot of their tid if it
	// has none.
	opWrite    opKind = iota // Write(tid, off, n bytes of val, every stride-th; 0 between)
	opRead                   // Read(tid, off, n)
	opCommit                 // BeginCommit(tid); arg >= 0 snapshots that tid between its sections; val 1: its version escapes
	opUpdate                 // Update(tid)
	opUpdateTo               // UpdateTo(tid, its reservation or the head); arg 1: an unreserved target below the head, refused; 2: past the head; 3: its own version
	opReserve                // Reserve(tid)
	opDiscard                // Discard(tid)
	opRelease                // Release(tid)
	opRebind                 // Rebind(tid, arg)

	opSnapshot        // Snapshot(tid)
	opComplete        // Complete of pending commit arg (mod their count), on a goroutine
	opCompleteThrough // CompleteThrough(head - arg), on a goroutine
	opGC              // GC, on a goroutine
	opPrune           // Prune, on a goroutine
	opForEachPageDiff // ForEachPageDiff of the version the last BeginCommit published, if it escaped and no GC ran since
	opReadCommitted   // ReadCommitted of every readable version, on goroutines
	opChecksum        // Checksum
	opDo              // a named case's own check
)

var opNames = [...]string{"Write", "Read", "BeginCommit", "Update", "UpdateTo", "Reserve", "Discard", "Release", "Rebind",
	"Snapshot", "Complete", "CompleteThrough", "GC", "Prune", "ForEachPageDiff", "ReadCommitted", "Checksum", "Do"}

type op struct {
	kind           opKind
	tid, arg       int
	off, n, stride int
	val            byte
	do             func(r *modelRun) error // opDo
}

func (o op) String() string {
	return fmt.Sprintf("%s(t%d, arg %d, off %d, n %d, %#x/%d)", opNames[o.kind], o.tid, o.arg, o.off, o.n, o.val, o.stride)
}

// modelTids is how many workspaces a sequence may address, by tid.
const modelTids = 4

// geometry is a model segment's shape, and how many workspaces (tids) a
// sequence's ops address: with one, its commits publish their runs in
// place.
type geometry struct{ pageSize, npages, budget, tids int }

// source draws the choices a sequence is made of: the fuzzer's bytes
// (byteSource) or a seeded generator (randSource).
type source interface {
	draw(n int) int // in [0, n)
	more() bool
}

type byteSource []byte

func (b *byteSource) more() bool { return len(*b) > 0 }

func (b *byteSource) draw(n int) int {
	x := 0
	for k := 1; k < n && len(*b) > 0; k <<= 8 {
		x, *b = x<<8|int((*b)[0]), (*b)[1:]
	}
	return x % n
}

type randSource struct{ *rand.Rand }

func (r randSource) draw(n int) int { return r.Intn(n) }

func (r randSource) more() bool { return true }

func drawGeometry(src source) geometry {
	return geometry{64 << src.draw(5), 1 + src.draw(6), src.draw(3), 1 + src.draw(modelTids)}
}

// drawOps draws a sequence until src runs out or max ops are drawn.
func drawOps(src source, g geometry, max int) []op {
	size := g.pageSize * g.npages
	var ops []op
	for len(ops) < max && src.more() {
		o := op{tid: src.draw(g.tids), arg: -1, stride: 1}
		switch k := src.draw(100); {
		case k < 32:
			o.kind = opWrite
			switch src.draw(8) {
			case 0:
				o.n = 0
			case 1, 2:
				o.n = 1 + src.draw(g.pageSize+g.pageSize/2) // across pages, and large diffs
			default:
				o.n = 1 + src.draw(8)
			}
			o.n = min(o.n, size)
			o.off = src.draw(size - o.n + 1)
			o.val = byte(src.draw(4)) // few values: stores of what a byte holds
			if src.draw(4) == 0 {
				o.val = byte(src.draw(256))
			}
			o.stride = 1 + src.draw(3)
		case k < 38:
			o.kind, o.n = opRead, 1+src.draw(2*g.pageSize)
			o.n = min(o.n, size)
			o.off = src.draw(size - o.n + 1)
		case k < 52:
			o.kind = opCommit
			o.val = byte(k % 2) // an escape, drawn with the kind
			if src.draw(6) == 0 {
				o.arg = src.draw(modelTids)
			}
		case k < 59:
			o.kind, o.arg = opComplete, src.draw(8)
		case k < 62:
			o.kind, o.arg = opCompleteThrough, src.draw(3)
		case k < 68:
			o.kind = opUpdate
		case k < 73:
			o.kind, o.arg = opUpdateTo, src.draw(6)%4
		case k < 77:
			o.kind = opReserve
		case k < 82:
			o.kind = opGC
		case k < 86:
			o.kind = opPrune
		case k < 90:
			o.kind = opForEachPageDiff
		case k < 93:
			o.kind = opReadCommitted
		case k < 94:
			o.kind = opChecksum
		case k < 95:
			o.kind = opDiscard
		case k < 97:
			o.kind = opRelease
		case k < 98:
			o.kind = opSnapshot
		default:
			o.kind, o.arg = opRebind, src.draw(modelTids)
		}
		ops = append(ops, o)
	}
	return ops
}

// twinned is a stored byte of a workspace and its twin.
type twinned struct{ data, twin byte }

// modelWS is the model of one workspace.
type modelWS struct {
	w                *Workspace
	version          int64
	reserved         int64 // -1: none
	stored           map[int]*twinned
	faulted, patched map[int]bool // pages: faulted since the last commit, and patched since
}

// modelRun is one sequence's segment and model.
type modelRun struct {
	g       geometry
	s       *Segment
	ws      map[int]*modelWS // by tid
	head    int64
	mem     map[int64][]byte       // the versions a reader can still read
	diffs   map[int64]map[int]byte // the versions a workspace may still pull
	faults  int64
	pending []PendingCommit
	// last is the version the last BeginCommit published if it escaped,
	// and lastDiff its diff, until the next BeginCommit or a GC.
	// published is that version escaped or not, for a check to read until
	// the next GC, which may put its block back.
	last, published *Version
	lastDiff        map[int]byte
	async           sync.WaitGroup
	// gcs counts the GCs still running: an escaping commit waits for them,
	// so that no GC spawned before it folds its version, and its in-place
	// runs, before the sequence's ForEachPageDiff reads them.
	gcs sync.WaitGroup
	// serial runs Complete, CompleteThrough, GC and Prune on the
	// sequence's goroutine, for a check that reads slots unlocked; check
	// runs after every op.
	serial bool
	check  func(r *modelRun) error
}

// modelDeadline bounds a sequence: a run still going after it panics with
// its op list, so that a mutant that spins fails at once.
const modelDeadline = 10 * time.Second

// runModel runs ops on a fresh segment of geometry g beside the model, and
// fails t with the op list at the first disagreement. setup may set up the
// run's seams and checks before the first op.
func runModel(t *testing.T, g geometry, ops []op, setup ...func(*modelRun)) {
	t.Helper()
	s, err := NewSegment(SegmentConfig{Name: "model", Size: g.pageSize * g.npages, PageSize: g.pageSize, GCPageBudget: g.budget})
	if err != nil {
		t.Fatal(err)
	}
	s.onPut = func(b []byte) { clear(b); b[0] = 0xee } // a reader of a put buffer sees a byte no op stores
	s.onPutBlock = poisonBlock(g.pageSize)
	r := &modelRun{g: g, s: s, ws: map[int]*modelWS{}, mem: map[int64][]byte{0: make([]byte, s.Size())}, diffs: map[int64]map[int]byte{}}
	for _, f := range setup {
		f(r)
	}
	var step atomic.Int64
	done := make(chan error, 1)
	go func() { done <- r.run(ops, &step) }()
	list := func() string {
		lines := make([]string, len(ops))
		for i, o := range ops {
			lines[i] = fmt.Sprintf("%4d %v", i, o)
		}
		return fmt.Sprintf("%+v, %d ops:\n%s", g, len(ops), strings.Join(lines, "\n"))
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%v\n%s", err, list())
		}
	case <-time.After(modelDeadline):
		panic(fmt.Sprintf("%s: the sequence has not finished after %v, at op %d of %s", t.Name(), modelDeadline, step.Load(), list()))
	}
}

// run runs ops and then finish, and returns the first disagreement.
func (r *modelRun) run(ops []op, step *atomic.Int64) (err error) {
	where := "the finish"
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s panicked: %v\n%s", where, p, debug.Stack())
		}
	}()
	for i, o := range ops {
		step.Store(int64(i))
		where = fmt.Sprintf("op %d (%v)", i, o)
		if err := r.step(o); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
	}
	where = "the finish"
	return r.finish()
}

// view is byte i as m's workspace reads it.
func (r *modelRun) view(m *modelWS, i int) byte {
	if b := m.stored[i]; b != nil {
		return b.data
	}
	return r.mem[m.version][i]
}

// pull moves m to version h: each version's stores patch the stored bytes
// that still agree with their twins, and the pages they touch that m has
// faulted are patched. It returns the distinct pages the versions touch.
func (r *modelRun) pull(m *modelWS, h int64) int {
	touched := map[int]bool{}
	for v := m.version + 1; v <= h; v++ {
		for i, x := range r.diffs[v] {
			pg := i / r.g.pageSize
			touched[pg] = true
			m.patched[pg] = m.patched[pg] || m.faulted[pg]
			if b := m.stored[i]; b != nil && b.data == b.twin {
				b.data, b.twin = x, x
			}
		}
	}
	m.version = max(m.version, h)
	return len(touched)
}

func newModelWS(w *Workspace, version int64) *modelWS {
	return &modelWS{w: w, version: version, reserved: -1, stored: map[int]*twinned{}, faulted: map[int]bool{}, patched: map[int]bool{}}
}

// drop forgets what m has stored and faulted.
func (m *modelWS) drop() {
	m.stored, m.faulted, m.patched = map[int]*twinned{}, map[int]bool{}, map[int]bool{}
}

// step runs one op on the segment and the model.
func (r *modelRun) step(o op) error {
	m := r.ws[o.tid]
	if m == nil && o.kind < opSnapshot {
		o.kind = opSnapshot
	}
	switch o.kind {
	case opWrite:
		data := make([]byte, o.n)
		for j := 0; j < o.n; j += o.stride {
			data[j] = o.val
		}
		m.w.Write(data, o.off)
		for j, x := range data {
			i := o.off + j
			if pg := i / r.g.pageSize; !m.faulted[pg] {
				m.faulted[pg] = true
				r.faults++
			}
			if b := m.stored[i]; b != nil {
				b.data = x
			} else {
				m.stored[i] = &twinned{x, r.mem[m.version][i]}
			}
		}
	case opRead:
		got := make([]byte, o.n)
		m.w.Read(got, o.off)
		for j, x := range got {
			if want := r.view(m, o.off+j); x != want {
				return fmt.Errorf("t%d at v%d reads %#x at %d, want %#x", o.tid, m.version, x, o.off+j, want)
			}
		}
	case opCommit:
		if err := r.commit(o.tid, m, o.arg, o.val == 1); err != nil {
			return err
		}
	case opComplete:
		if len(r.pending) > 0 {
			k := o.arg % len(r.pending)
			pc := r.pending[k]
			r.pending = slices.Delete(r.pending, k, k+1)
			r.spawn(pc.Complete)
		}
	case opCompleteThrough:
		n := max(r.head-int64(o.arg), 0)
		r.spawn(func() { r.s.CompleteThrough(n) })
	case opUpdate:
		want := r.pull(m, r.head)
		m.reserved = -1
		if got := m.w.Update(); got != want {
			return fmt.Errorf("pulled %d pages, want %d", got, want)
		}
	case opUpdateTo:
		target, bad := r.head, m.version+1
		if bad == m.reserved {
			bad++
		}
		if o.arg == 1 && bad < r.head {
			m.reserved = -1 // refused, and the reservation is gone
			if err := mustPanic("without reserving", func() { m.w.UpdateTo(bad) }); err != nil {
				return err
			}
			break
		}
		switch {
		case o.arg == 2:
			target = r.head + 5 // clamped to the head
		case o.arg == 3:
			target = m.version // no move
		case m.reserved >= 0:
			target = m.reserved
		}
		want := r.pull(m, min(target, r.head))
		m.reserved = -1
		if got := m.w.UpdateTo(target); got != want {
			return fmt.Errorf("UpdateTo(%d) pulled %d pages, want %d", target, got, want)
		}
	case opReserve:
		if m.reserved = m.w.Reserve(); m.reserved != r.head {
			return fmt.Errorf("reserved %d, want the head %d", m.reserved, r.head)
		}
	case opGC:
		r.last, r.published = nil, nil // GC may fold it: its in-place runs are gone
		r.gcs.Add(1)
		r.spawn(func() { defer r.gcs.Done(); r.s.GC() })
	case opPrune:
		r.spawn(r.s.Prune)
	case opForEachPageDiff:
		if r.last != nil {
			if err := r.checkDiffs(r.last); err != nil {
				return err
			}
		}
	case opReadCommitted:
		if err := r.readAll(); err != nil {
			return err
		}
	case opChecksum:
		h := fnv.New64a()
		h.Write(r.mem[r.head])
		if got, want := r.s.Checksum(), h.Sum64(); got != want {
			return fmt.Errorf("Checksum %#x, want FNV-1a over the head %#x", got, want)
		}
	case opDiscard:
		m.w.Discard()
		m.drop()
	case opSnapshot:
		w, err := r.s.Snapshot(o.tid)
		if (err == nil) != (m == nil) {
			return fmt.Errorf("Snapshot of t%d (live %v): %v", o.tid, m != nil, err)
		}
		if m == nil {
			r.ws[o.tid] = newModelWS(w, r.head)
		}
	case opRelease:
		r.s.Release(m.w)
		delete(r.ws, o.tid)
	case opRebind:
		err := r.s.Rebind(m.w, o.arg)
		if (err == nil) != (r.ws[o.arg] == nil) {
			return fmt.Errorf("Rebind to t%d (live %v): %v", o.arg, r.ws[o.arg] != nil, err)
		}
		if err == nil {
			delete(r.ws, o.tid)
			r.ws[o.arg] = m
		}
	case opDo:
		if err := o.do(r); err != nil {
			return err
		}
	}
	r.forget()
	if h := r.s.Head(); h != r.head {
		return fmt.Errorf("head %d, want %d", h, r.head)
	}
	for tid, m := range r.ws {
		if m.w.Version() != m.version || m.w.Tid() != tid {
			return fmt.Errorf("t%d's workspace is t%d at v%d, want v%d", tid, m.w.Tid(), m.w.Version(), m.version)
		}
	}
	if st := r.s.Stats(); st.Faults != r.faults || st.Versions != r.head {
		return fmt.Errorf("Stats count %d faults and %d versions, want %d and %d", st.Faults, st.Versions, r.faults, r.head)
	}
	if r.check != nil {
		return r.check(r)
	}
	return nil
}

// commit runs tid's BeginCommit, with a Snapshot of tid gap between its
// sections if gap >= 0 has no workspace, and checks what it published.
// With escape the version's pointer leaves the package
// (PendingCommit.Version), and its block is never reused; without, the
// checks read it before the commit completes, while its committer holds
// it, and GC may put its block back once it has folded.
func (r *modelRun) commit(tid int, m *modelWS, gap int, escape bool) error {
	if escape {
		r.gcs.Wait()
	}
	before := r.head
	var gapWS *Workspace
	if gap >= 0 && r.ws[gap] == nil {
		r.s.beforePublish = func() { gapWS, _ = r.s.Snapshot(gap) }
	}
	pc := m.w.BeginCommit()
	r.s.beforePublish = nil
	if gapWS != nil {
		r.ws[gap] = newModelWS(gapWS, before)
	}
	pulled := r.pull(m, r.head)
	diff, pages, merged := map[int]byte{}, map[int]bool{}, 0
	for i, b := range m.stored {
		if b.data != b.twin {
			diff[i] = b.data
			if pg := i / r.g.pageSize; !pages[pg] {
				pages[pg] = true
				if m.patched[pg] {
					merged++
				}
			}
		}
	}
	m.drop()
	want := CommitStats{CommittedPages: len(pages), MergedPages: merged, DiffBytes: len(diff), PulledPages: pulled}
	if got := pc.Stats(); got != want {
		return fmt.Errorf("commit stats %+v, want %+v", got, want)
	}
	v := pc.version
	if escape {
		v = pc.Version()
	}
	if (v != nil) != (len(diff) > 0) {
		return fmt.Errorf("published %v, want a version for %d bytes", v != nil, len(diff))
	}
	r.last, r.published, r.lastDiff = nil, v, diff
	if escape {
		r.last = v
	}
	if v == nil {
		return nil
	}
	r.pending = append(r.pending, pc)
	r.head++
	r.diffs[r.head] = diff
	next := slices.Clone(r.mem[before])
	for i, x := range diff {
		next[i] = x
	}
	r.mem[r.head], m.version = next, r.head
	if v.Num != r.head || v.Committer != tid || !slices.Equal(v.PageIndexes(), sortedKeys(pages)) {
		return fmt.Errorf("published v%d by t%d pages %v, want v%d by t%d pages %v", v.Num, v.Committer, v.PageIndexes(), r.head, tid, sortedKeys(pages))
	}
	return nil
}

// checkDiffs holds v's ForEachPageDiff to lastDiff, v's diff: one run
// per maximal span of stored bytes, in page and offset order.
func (r *modelRun) checkDiffs(v *Version) error {
	var got, want []string
	v.ForEachPageDiff(func(pg int, d Diff) {
		for _, run := range d.Runs {
			got = append(got, fmt.Sprintf("p%d+%d % x", pg, run.Off, run.Data))
		}
	})
	d := r.lastDiff
	offs := sortedKeys(d)
	for k := 0; k < len(offs); {
		j := k + 1
		for j < len(offs) && offs[j] == offs[j-1]+1 && offs[j]%r.g.pageSize != 0 {
			j++
		}
		data := make([]byte, j-k)
		for x := k; x < j; x++ {
			data[x-k] = d[offs[x]]
		}
		want = append(want, fmt.Sprintf("p%d+%d % x", offs[k]/r.g.pageSize, offs[k]%r.g.pageSize, data))
		k = j
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("v%d's ForEachPageDiff passes %v, want %v", v.Num, got, want)
	}
	return nil
}

// sortedKeys returns m's keys, ascending.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// readAll reads every readable version whole, each on its own goroutine,
// racing one another and any merge still running.
func (r *modelRun) readAll() error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for v, want := range r.mem {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]byte, len(want))
			r.s.ReadCommitted(got, 0, v)
			if i := firstDiff(got, want); i >= 0 {
				mu.Lock()
				errs = append(errs, fmt.Errorf("v%d reads %#x at %d, want %#x", v, got[i], i, want[i]))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// spawn runs f on a goroutine, or at once if the run is serial.
func (r *modelRun) spawn(f func()) {
	if r.serial {
		f()
		return
	}
	r.async.Add(1)
	go func() { defer r.async.Done(); f() }()
}

// forget drops every version no reader can read any more — one no
// workspace sits at or has reserved, below the head — and the diffs of
// those no workspace can pull.
func (r *modelRun) forget() {
	low := r.head
	for _, m := range r.ws {
		low = min(low, m.version)
	}
	for v := range r.mem {
		pinned := v == r.head
		for _, m := range r.ws {
			pinned = pinned || v == m.version || v == m.reserved
		}
		if !pinned {
			delete(r.mem, v)
		}
	}
	for v := range r.diffs {
		if v <= low {
			delete(r.diffs, v)
		}
	}
}

// finish completes every merge, reads every readable version, releases
// every workspace and collects until nothing is retained; then the head
// must still read as the model's, and every live page must be populated.
func (r *modelRun) finish() error {
	r.async.Wait()
	for _, pc := range r.pending {
		pc.Complete()
	}
	if err := r.readAll(); err != nil {
		return err
	}
	for tid, m := range r.ws {
		r.s.Release(m.w)
		delete(r.ws, tid)
	}
	for i := 0; r.s.RetainedVersions() > 0; i++ {
		if i > int(r.head) {
			return fmt.Errorf("GC leaves %d versions retained", r.s.RetainedVersions())
		}
		r.s.GC()
	}
	r.forget()
	if err := r.readAll(); err != nil {
		return err
	}
	if st, live := r.s.Stats(), r.s.PopulatedPages(); st.CurPages != int64(live) {
		return fmt.Errorf("CurPages %d once every workspace left, but %d pages are populated", st.CurPages, live)
	}
	return nil
}

// poisonBlock returns the block seam of a model segment of pages of
// pageSize bytes: it makes every version block put back read as a one-page
// version that governs page 0 at every version, whose merged page and
// diff are bytes no op stores, and makes the runs and bytes behind its
// header read as such a diff too. So a reader, a patch or a merge that
// reaches a block after it was put back reads poison, and the model
// reports the mismatch.
func poisonBlock(pageSize int) func(*Version, []Run, []byte) {
	return func(v *Version, runs []Run, b []byte) {
		poison := bytes.Repeat([]byte{0xee}, pageSize)
		for k := range runs {
			runs[k] = Run{Off: 0, Data: poison}
		}
		for k := range b {
			b[k] = 0xee
		}
		slot := &v.one[0]
		v.Num, v.Committer, v.slots = 0, -1, v.one[:]
		slot.version, slot.data = v, poison
		slot.diff = Diff{Runs: runs}
		slot.once.Do(func() {})
		slot.state.Store(slotResolved)
	}
}

// mustPanic returns an error unless f panics with a message holding want.
func mustPanic(want string, f func()) (err error) {
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), want) {
			err = fmt.Errorf("panic %v, want one holding %q", p, want)
		}
	}()
	f()
	return nil
}

// modelSeeds is how many generated sequences FuzzMemModel's corpus holds.
const modelSeeds = 48

// FuzzMemModel runs the sequence its input decodes to beside the model.
// The corpus is modelSeeds generated inputs; a kill-table entry names one
// as FuzzMemModel/seed#N, its number being its seed less one.
func FuzzMemModel(f *testing.F) {
	for seed := int64(1); seed <= modelSeeds; seed++ {
		b := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		g := drawGeometry(&src)
		runModel(t, g, drawOps(&src, g, 400))
	})
}

// TestMemModel runs named sequences beside the model, serially: each is
// the shortest this package's kill table needs for an interleaving the
// generated corpus does not reach.
func TestMemModel(t *testing.T) {
	gc, prune := op{kind: opGC}, op{kind: opPrune}
	for _, c := range []struct {
		name string
		ops  []op
	}{
		{"snapshot between a sole commit's sections", []op{
			on(opSnapshot, 0, 0), write(0, 0, 20, 1), // a large diff: in place, while 0 is alone
			{kind: opCommit, tid: 0, arg: 1}, // 1 snapshots at v0 between the sections
			write(1, 40, 1, 9),               // 1 dirties page 0: its update patches from v1's runs
			write(0, 30, 1, 2), commit(0), on(opCompleteThrough, 0, 0),
			prune, // no pin lies in [1, 2): v1's page is put, its runs with it unless owned
			on(opUpdate, 1, 0), read(1, 0, 64),
		}},
		{"the twin's value stored back after a patch skipped the byte", []op{
			on(opSnapshot, 0, 0), on(opSnapshot, 1, 0), write(1, 0, 1, 5), write(0, 0, 1, 5), commit(0),
			on(opUpdate, 1, 0), // 1's byte 0 is dirty: the patch skips it, the twin stays 0
			write(1, 0, 1, 0),  // equal to its twin: not published, so v2 keeps v1's 5
			write(1, 1, 1, 7), commit(1), {kind: opForEachPageDiff}, readable,
		}},
		{"a patched page whose chain has folded", []op{
			on(opSnapshot, 0, 0), on(opSnapshot, 1, 0), write(1, 0, 1, 5), write(0, 1, 1, 7), commit(0),
			on(opUpdate, 1, 0), on(opCompleteThrough, 0, 0), // v1 patches 1's page 0
			gc,        // v1 folds: page 0 has no version left
			commit(1), // a merge over the base table's page
			readable,
		}},
		{"a merge still running when its predecessor folds", []op{
			on(opSnapshot, 0, 0), on(opSnapshot, 1, 0), write(1, 1, 1, 9), write(0, 0, 1, 5), commit(0),
			on(opComplete, 0, 0),
			on(opUpdate, 1, 0), // patches 1's page 0: its commit merges over v1's slot
			write(1, 2, 1, 7), commit(1),
			gc,                   // v1 folds while v2's merge, which reads it, has not run
			on(opComplete, 0, 0), // v2's merge
			gc, readable, read(1, 0, 64),
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			runModel(t, geometry{64, 2, 0, 2}, c.ops, func(r *modelRun) { r.serial = true })
		})
	}
}

// Named sequences are written with these.

func write(tid, off, n int, val byte) op {
	return op{kind: opWrite, tid: tid, off: off, n: n, val: val, stride: 1}
}
func read(tid, off, n int) op       { return op{kind: opRead, tid: tid, off: off, n: n} }
func commit(tid int) op             { return op{kind: opCommit, tid: tid, arg: -1} }
func do(f func(*modelRun) error) op { return op{kind: opDo, do: f} }
func on(k opKind, tid, arg int) op  { return op{kind: k, tid: tid, arg: arg} }

// readable is the op that reads every readable version.
var readable = op{kind: opReadCommitted}

// snapshots returns the ops that give tids 0 to n-1 a workspace each.
func snapshots(n int) []op {
	ops := make([]op, n)
	for tid := range ops {
		ops[tid] = on(opSnapshot, tid, 0)
	}
	return ops
}
