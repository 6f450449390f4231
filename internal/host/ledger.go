package host

import "repro/internal/api"

// Ledger is the chassis every api.T implementation embeds: the thread's
// binding, its id, its sync-object id counter, the staging word behind
// api.T.Word, and the interval ledger that turns host time into an
// api.ThreadTime. A runtime's own thread type adds only its ordering
// discipline and memory model. All methods are for the owning thread.
type Ledger struct {
	// B is the thread's host context, set by Start.
	B Binding
	// Time is the thread's breakdown so far (Time.Tid is its id) and
	// SyncOps its synchronization-operation count: what the runtime hands
	// to api.RunStats.AddThread when the thread finishes.
	Time    api.ThreadTime
	SyncOps int64

	lastEvent int64 // host time at the last accounting boundary
	objSeq    uint64
	word      [8]byte
}

// NewLedger returns the ledger of thread tid, not yet started.
func NewLedger(tid int) Ledger { return Ledger{Time: api.ThreadTime{Tid: tid}} }

// Start binds the ledger to its host context and opens the first
// accounting interval; first thing run on the thread's goroutine/proc.
func (l *Ledger) Start(b Binding) {
	l.B = b
	l.lastEvent = b.Now()
}

// Tid implements api.T.
func (l *Ledger) Tid() int { return l.Time.Tid }

// Word implements api.T.
func (l *Ledger) Word() *[8]byte { return &l.word }

// NewObjID allocates the thread's next sync-object id (api.ObjID).
func (l *Ledger) NewObjID() uint64 {
	l.objSeq++
	return api.ObjID(l.Time.Tid, l.objSeq)
}

// Lap closes the current accounting interval and returns it: [from, to)
// is the host time since the previous boundary, and to opens the next.
func (l *Ledger) Lap() (from, to int64) {
	from, to = l.lastEvent, l.B.Now()
	l.lastEvent = to
	return from, to
}

// Last returns the host time of the latest accounting boundary: the
// reading that opened the current interval. A stamp taken right after a
// boundary can reuse it instead of reading the clock again.
func (l *Ledger) Last() int64 { return l.lastEvent }

// Account closes the current interval into *cat, one of Time's fields.
func (l *Ledger) Account(cat *int64) {
	from, to := l.Lap()
	*cat += to - from
}

// Charge elapses ns of modeled time and accounts it to *cat.
func (l *Ledger) Charge(cat *int64, ns int64) {
	if ns > 0 {
		l.B.Charge(ns)
	}
	l.Account(cat)
}
