// Package chaos is a seeded, fully deterministic fault-injection
// subsystem for the deterministic runtime: it perturbs *timing* —
// virtual-time jitter on modeled work, adversarial token-grant delays,
// counter-overflow shrinkage, forced prefetch mispredictions, barrier
// arrival skew, page-fault and commit slowdowns — without being allowed
// to perturb *results*. The paper's central claim is that a racy program
// under Consequence yields the same output regardless of thread timing;
// chaos exists to exercise that claim adversarially: the chaos gate
// (TestGateChaos in internal/harness) runs every golden benchmark under
// every profile in Profiles() x five seeds and asserts byte-identical checksums and
// sync-trace hashes against the unperturbed goldens.
//
// A Profile is a knob vector: one amplitude per injection point (Knob).
// Every perturbation decision is drawn from a splitmix64 stream keyed by
// (seed, subsystem, thread), so a run is a deterministic function of
// (profile, seed) on the simulation host and replays exactly. Injection
// points are confined to quantities the determinism argument already
// covers: modeled durations (never instruction counts or logical
// clocks), advisory predictions (droppable by construction), and
// notification schedules (overflow intervals, wake latency) that affect
// only when — never whether or in what logical order — the arbiter
// grants the token.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Knob is one injection point. It indexes a Profile's amplitudes and the
// injector's Stats; a zero amplitude disables that injection point
// entirely.
type Knob int

// The knobs. Each comment gives the amplitude's unit and where the draw
// lands.
const (
	// Jitter stretches every Binding.Charge by a per-call random factor in
	// [0, amplitude]% — virtual-time jitter on modeled work (no effect on
	// untimed hosts, where Charge is a no-op). Drawn by ChargeJitter.
	Jitter Knob = iota
	// Wake delays token-grant (and barrier-release) wakes by up to this
	// many nanoseconds, charged to the waking thread: the adversarial
	// "slow handoff" case. On untimed (real) hosts the delay is a real
	// sleep, like the -verify schedule perturbation.
	Wake
	// Overflow shrinks each counter-overflow interval by up to this
	// percentage (clamped to at least one instruction), forcing more
	// frequent clock publication and more overflow IRQs at adversarially
	// uneven points. Drawn by OverflowInterval.
	Overflow
	// Mispredict drops each predicted page from a write-set prediction
	// with this probability (in percent): forced prefetch mispredictions.
	// Prediction is advisory, so drops cost time, never correctness.
	// Drawn by FilterPrediction.
	Mispredict
	// Barrier delays each barrier arrival by up to this many nanoseconds
	// of virtual time, randomizing rendezvous arrival order in time (the
	// logical arrival order is token-determined).
	Barrier
	// Fault adds up to this many nanoseconds to each serviced
	// copy-on-write page fault (including prefetch population).
	Fault
	// Commit adds up to this many nanoseconds to each token-held serial
	// commit phase: the injected commit slowdown.
	Commit
	// LogStall stalls the commit log's drain goroutine by up to this many
	// REAL nanoseconds at its write points (periodic record batches,
	// segment rolls, snapshots): the injected slow-disk case. The stall is
	// wall-clock only — the drain is off the critical path, so a stalled
	// log exerts backpressure (visible as commitlog_append_stalls) but can
	// never move modeled time or results, and the logged bytes themselves
	// are unchanged; TestGateCommitLog (internal/harness) gates both.
	LogStall
	// FollowerKill kills a replica follower (a recovered panic the fleet
	// supervisor restarts from the newest snapshot) with this
	// per-ten-thousand probability at each applied commit. Followers are
	// pure consumers of the commit log, so a kill can delay reads but
	// never move the writer's results or what any follower serves at a
	// version (internal/replica's determinism gate asserts exactly that).
	FollowerKill
	// FollowerStall stalls a replica follower's apply loop by up to this
	// many REAL nanoseconds per applied commit — the slow-disk /
	// slow-consumer case that builds follower lag and exercises the
	// fleet's drain-from-routing degradation path.
	FollowerStall
	// FollowerTear makes a replica follower abandon its subscription
	// mid-stream (as if its read hit a torn tail or an unreadable segment)
	// with this per-ten-thousand probability at each applied commit,
	// forcing the retry/backoff resubscribe loop to resume without gaps or
	// duplicates.
	FollowerTear
	// NumKnobs is the number of knobs: the length of every knob vector.
	NumKnobs
)

// Profile is one named perturbation mix: an amplitude per knob.
type Profile struct {
	// Name identifies the profile in -chaos specs and reports.
	Name string
	// Amp is the knob vector; see each Knob for its unit.
	Amp [NumKnobs]int64
}

// profiles is the registry of built-in perturbation mixes. Amplitudes are
// sized against costmodel.Default(): large enough to reorder virtual-time
// interleavings aggressively (a wake delay several times the modeled
// handoff, fault delays comparable to the fault itself), small enough
// that gated sweeps stay fast.
var profiles = []Profile{
	{"jitter", [NumKnobs]int64{Jitter: 40}},
	{"token", [NumKnobs]int64{Wake: 2_500}},
	{"overflow", [NumKnobs]int64{Overflow: 75}},
	{"mispredict", [NumKnobs]int64{Mispredict: 60}},
	{"barrier", [NumKnobs]int64{Barrier: 6_000}},
	{"mem", [NumKnobs]int64{Fault: 2_000, Commit: 4_000}},
	{"logstall", [NumKnobs]int64{LogStall: 500_000}},
	// Follower-side profiles perturb replica consumers only: the writer's
	// stream is untouched, so every checksum and read answer must hold.
	{"follower-kill", [NumKnobs]int64{FollowerKill: 120, FollowerStall: 30_000}},
	{"follower-stall", [NumKnobs]int64{FollowerStall: 400_000}},
	{"follower-tear", [NumKnobs]int64{FollowerTear: 150, FollowerStall: 20_000}},
	{"storm", [NumKnobs]int64{
		Jitter: 25, Wake: 1_500, Overflow: 50, Mispredict: 35, Barrier: 3_000,
		Fault: 1_200, Commit: 2_500, LogStall: 200_000,
	}},
}

// Profiles returns the built-in profile names, sorted.
func Profiles() []string {
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// Stats counts injected perturbations per knob; all values are lifetime
// totals.
type Stats struct {
	// Events counts injections that changed something: a non-zero delay,
	// a shrunk interval, a trigger that fired — and, for Mispredict, each
	// dropped page.
	Events [NumKnobs]int64
	// Amount sums the injected nanoseconds of the delay knobs (virtual on
	// timed hosts; real for LogStall and FollowerStall). It stays zero for
	// Overflow, Mispredict, FollowerKill and FollowerTear.
	Amount [NumKnobs]int64
}

// Injector is one run's perturbation source: a profile plus a seed.
// Injectors are single-use per run (streams carry per-thread sequence
// state); create a fresh one for each runtime so replays line up.
// Counter updates are atomic, so a mid-run registry snapshot may read
// Stats.
type Injector struct {
	prof           Profile
	seed           uint64
	events, amount [NumKnobs]atomic.Int64
}

// New creates an injector for profile p and seed.
func New(p Profile, seed int64) *Injector {
	return &Injector{prof: p, seed: uint64(seed)}
}

// Parse builds an injector from a "profile:seed" spec naming a built-in
// profile (":seed" optional, default seed 1). The empty spec returns nil:
// chaos disabled.
func Parse(spec string) (*Injector, error) {
	if spec == "" {
		return nil, nil
	}
	name, seedStr, found := strings.Cut(spec, ":")
	seed := int64(1)
	if found {
		n, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("chaos: bad seed in spec %q: %v", spec, err)
		}
		seed = n
	}
	for _, p := range profiles {
		if p.Name == name {
			return New(p, seed), nil
		}
	}
	return nil, fmt.Errorf("chaos: unknown profile %q (have %s)", name, strings.Join(Profiles(), ", "))
}

// Profile returns the injector's perturbation mix.
func (in *Injector) Profile() Profile { return in.prof }

// Seed returns the injector's seed.
func (in *Injector) Seed() int64 { return int64(in.seed) }

// String renders the injector as a reusable -chaos spec.
func (in *Injector) String() string {
	return fmt.Sprintf("%s:%d", in.prof.Name, in.seed)
}

// Stats snapshots the injected-event counters.
func (in *Injector) Stats() Stats {
	var st Stats
	for k := range NumKnobs {
		st.Events[k] = in.events[k].Load()
		st.Amount[k] = in.amount[k].Load()
	}
	return st
}

// note counts events injections of knob k totalling amount.
func (in *Injector) note(k Knob, events, amount int64) {
	in.events[k].Add(events)
	if amount != 0 {
		in.amount[k].Add(amount)
	}
}

// Stream subsystem salts. Each (salt, id) pair owns an independent
// deterministic random sequence, so one subsystem consuming more draws
// never shifts another's.
const (
	saltHost     = 0x686f7374 // "host": binding wrapper (charge + wake)
	saltThread   = 0x74687264 // "thrd": det thread (barrier, commit)
	saltOverflow = 0x6f766572 // "over": counter-overflow schedule
	saltPredict  = 0x70726564 // "pred": write-set prediction filter
	saltFault    = 0x666c7400 // "flt":  page-fault servicing
	saltLog      = 0x6c6f6773 // "logs": commit-log drain stalls
	saltReplica  = 0x72657061 // "repa": replica follower faults
)

// Stream is a per-(subsystem, thread) deterministic random sequence with
// the injector's knobs applied. A stream must only be used by the thread
// it was created for (no internal locking) — the same ownership
// discipline as the runtime's unlock estimators and predictor tables.
// Every method of a nil Stream (chaos disabled) injects nothing and draws
// nothing.
type Stream struct {
	in  *Injector
	rng Rand
}

func (in *Injector) stream(salt, id uint64) *Stream {
	if in == nil {
		return nil
	}
	// Decorrelate (seed, salt, id) into the initial splitmix64 state. The
	// stream's first draw is two increments past s (its draws predate the
	// exported Rand and are pinned by the chaos stats tests).
	s := in.seed ^ mix(salt) ^ mix(id*gamma+salt)
	return &Stream{in: in, rng: Rand{state: s + gamma}}
}

// ThreadStream returns the det-thread stream for tid (barrier skew and
// commit delays).
func (in *Injector) ThreadStream(tid int) *Stream { return in.stream(saltThread, uint64(tid)) }

// HostStream returns the host-binding stream for a thread name hash
// (charge jitter and wake delays).
func (in *Injector) HostStream(id uint64) *Stream { return in.stream(saltHost, id) }

// OverflowStream returns the counter-overflow stream for tid.
func (in *Injector) OverflowStream(tid int) *Stream { return in.stream(saltOverflow, uint64(tid)) }

// PredictStream returns the prediction-filter stream for tid.
func (in *Injector) PredictStream(tid int) *Stream { return in.stream(saltPredict, uint64(tid)) }

// FaultStream returns the fault-delay stream for tid.
func (in *Injector) FaultStream(tid int) *Stream { return in.stream(saltFault, uint64(tid)) }

// LogStream returns the commit-log drain-stall stream (one per run: the
// drain goroutine is the stream's single owner).
func (in *Injector) LogStream() *Stream { return in.stream(saltLog, 0) }

// FollowerStream returns the replica-follower fault stream for follower
// id. Each follower goroutine owns its stream, so a fleet of N followers
// draws N independent sequences and one follower's kills never shift
// another's.
func (in *Injector) FollowerStream(id int) *Stream { return in.stream(saltReplica, uint64(id)) }

// splitmix64's increment and its two finalizer multipliers (NewRand also
// decorrelates ids with the first).
const (
	gamma = 0x9e3779b97f4a7c15
	mul1  = 0xbf58476d1ce4e5b9
	mul2  = 0x94d049bb133111eb
)

// Rand is the repo's one splitmix64 generator: the chaos streams, the
// replica fleet's backoff jitter and the versioned-read sweep all draw
// from it. Not safe for concurrent use; the zero value is a valid stream.
type Rand struct{ state uint64 }

// NewRand derives an independent stream from (seed, id) under a
// per-subsystem salt: a pure function of its arguments, so a draw
// sequence replays exactly.
func NewRand(seed, id int64, salt uint64) Rand {
	return Rand{state: uint64(seed)*gamma + uint64(id)*mul1 + salt}
}

// mix is the splitmix64 output permutation of x: the first draw of a
// stream whose state is x.
func mix(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * mul1
	x = (x ^ (x >> 27)) * mul2
	return x ^ (x >> 31)
}

// Next draws the stream's next 64-bit value.
func (r *Rand) Next() uint64 {
	v := mix(r.state)
	r.state += gamma
	return v
}

// Below draws a value in [0, n); n must be positive.
func (r *Rand) Below(n int64) int64 {
	return int64(r.Next() % uint64(n))
}

// Delay draws knob k's bounded delay: uniform nanoseconds in [0, its
// amplitude]. It serves the delay knobs — Wake, Barrier, Fault, Commit,
// LogStall and FollowerStall.
func (s *Stream) Delay(k Knob) int64 {
	if s == nil || s.in.prof.Amp[k] <= 0 {
		return 0
	}
	d := s.rng.Below(s.in.prof.Amp[k] + 1)
	if d > 0 {
		s.in.note(k, 1, d)
	}
	return d
}

// Trigger reports whether knob k fires at this draw, with its
// per-ten-thousand amplitude as the probability. It serves FollowerKill
// and FollowerTear.
func (s *Stream) Trigger(k Knob) bool {
	if s == nil || s.in.prof.Amp[k] <= 0 {
		return false
	}
	if s.rng.Below(10_000) >= s.in.prof.Amp[k] {
		return false
	}
	s.in.note(k, 1, 0)
	return true
}

// ChargeJitter returns the extra nanoseconds to stretch an ns-long Charge
// by (0 when the knob is off or ns is 0).
func (s *Stream) ChargeJitter(ns int64) int64 {
	if s == nil || s.in.prof.Amp[Jitter] <= 0 || ns <= 0 {
		return 0
	}
	extra := ns * s.rng.Below(s.in.prof.Amp[Jitter]+1) / 100
	if extra > 0 {
		s.in.note(Jitter, 1, extra)
	}
	return extra
}

// OverflowInterval perturbs a counter-overflow interval, shrinking it by
// up to the profile's percentage. The result is always at least 1: a
// zero interval would stall instruction retirement entirely.
func (s *Stream) OverflowInterval(iv int64) int64 {
	if s == nil || s.in.prof.Amp[Overflow] <= 0 || iv <= 1 {
		return iv
	}
	shrunk := max(iv-iv*s.rng.Below(s.in.prof.Amp[Overflow]+1)/100, 1)
	if shrunk != iv {
		s.in.note(Overflow, 1, 0)
	}
	return shrunk
}

// FilterPrediction drops each predicted page with the profile's
// misprediction probability, filtering pages in place. Order is
// preserved, so a sorted prediction stays sorted, and pages are never
// invented: an empty prediction draws nothing and stays empty.
func (s *Stream) FilterPrediction(pages []int) []int {
	if s == nil || s.in.prof.Amp[Mispredict] <= 0 || len(pages) == 0 {
		return pages
	}
	kept := pages[:0]
	for _, pg := range pages {
		if s.rng.Below(100) >= s.in.prof.Amp[Mispredict] {
			kept = append(kept, pg)
		}
	}
	if dropped := int64(len(pages) - len(kept)); dropped > 0 {
		s.in.note(Mispredict, dropped, 0)
	}
	return kept
}
