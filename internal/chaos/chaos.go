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

// Profile is one named perturbation mix. All knobs are amplitudes; a zero
// knob disables that injection point entirely.
type Profile struct {
	// Name identifies the profile in -chaos specs and reports.
	Name string
	// ChargeJitterPct stretches every Binding.Charge by a per-call random
	// factor in [0, ChargeJitterPct]% — virtual-time jitter on modeled
	// work (no effect on untimed hosts, where Charge is a no-op).
	ChargeJitterPct int64
	// WakeDelayNS delays token-grant (and barrier-release) wakes by up to
	// this many nanoseconds, charged to the waking thread: the adversarial
	// "slow handoff" case. On untimed (real) hosts the delay is a real
	// sleep, like the -verify schedule perturbation.
	WakeDelayNS int64
	// OverflowShrinkPct shrinks each counter-overflow interval by up to
	// this percentage (clamped to at least one instruction), forcing more
	// frequent clock publication and more overflow IRQs at adversarially
	// uneven points.
	OverflowShrinkPct int64
	// MispredictPct drops each predicted page from a write-set prediction
	// with this probability (in percent): forced prefetch mispredictions.
	// Prediction is advisory, so drops cost time, never correctness.
	MispredictPct int64
	// BarrierSkewNS delays each barrier arrival by up to this many
	// nanoseconds of virtual time, randomizing rendezvous arrival order
	// in time (the logical arrival order is token-determined).
	BarrierSkewNS int64
	// FaultDelayNS adds up to this many nanoseconds to each serviced
	// copy-on-write page fault (including prefetch population).
	FaultDelayNS int64
	// CommitDelayNS adds up to this many nanoseconds to each token-held
	// serial commit phase: the injected commit slowdown.
	CommitDelayNS int64
	// LogStallNS stalls the commit log's drain goroutine by up to this
	// many REAL nanoseconds at its write points (periodic record batches,
	// segment rolls, snapshots): the injected slow-disk case. The stall is
	// wall-clock only — the drain is off the critical path, so a stalled
	// log exerts backpressure (visible as commitlog_append_stalls) but can
	// never move modeled time or results, and the logged bytes themselves
	// are unchanged; TestGateCommitLog (internal/harness) gates both.
	LogStallNS int64
	// FollowerKillPer10K kills a replica follower (a recovered panic the
	// fleet supervisor restarts from the newest snapshot) with this
	// per-ten-thousand probability at each applied commit. Followers are
	// pure consumers of the commit log, so a kill can delay reads but
	// never move the writer's results or what any follower serves at a
	// version (internal/replica's determinism gate asserts exactly that).
	FollowerKillPer10K int64
	// FollowerStallNS stalls a replica follower's apply loop by up to
	// this many REAL nanoseconds per applied commit — the slow-disk /
	// slow-consumer case that builds follower lag and exercises the
	// fleet's drain-from-routing degradation path.
	FollowerStallNS int64
	// FollowerTearPer10K makes a replica follower abandon its
	// subscription mid-stream (as if its read hit a torn tail or an
	// unreadable segment) with this per-ten-thousand probability at each
	// applied commit, forcing the retry/backoff resubscribe loop to
	// resume without gaps or duplicates.
	FollowerTearPer10K int64
}

// profiles is the registry of built-in perturbation mixes. Amplitudes are
// sized against costmodel.Default(): large enough to reorder virtual-time
// interleavings aggressively (a wake delay several times the modeled
// handoff, fault delays comparable to the fault itself), small enough
// that gated sweeps stay fast.
var profiles = []Profile{
	{Name: "jitter", ChargeJitterPct: 40},
	{Name: "token", WakeDelayNS: 2_500},
	{Name: "overflow", OverflowShrinkPct: 75},
	{Name: "mispredict", MispredictPct: 60},
	{Name: "barrier", BarrierSkewNS: 6_000},
	{Name: "mem", FaultDelayNS: 2_000, CommitDelayNS: 4_000},
	{Name: "logstall", LogStallNS: 500_000},
	// Follower-side profiles perturb replica consumers only: the writer's
	// stream is untouched, so every checksum and read answer must hold.
	{Name: "follower-kill", FollowerKillPer10K: 120, FollowerStallNS: 30_000},
	{Name: "follower-stall", FollowerStallNS: 400_000},
	{Name: "follower-tear", FollowerTearPer10K: 150, FollowerStallNS: 20_000},
	{
		Name:              "storm",
		ChargeJitterPct:   25,
		WakeDelayNS:       1_500,
		OverflowShrinkPct: 50,
		MispredictPct:     35,
		BarrierSkewNS:     3_000,
		FaultDelayNS:      1_200,
		CommitDelayNS:     2_500,
		LogStallNS:        200_000,
	},
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

// ProfileByName returns the named built-in profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("chaos: unknown profile %q (have %s)", name, strings.Join(Profiles(), ", "))
}

// Stats counts injected perturbation events; all fields are lifetime
// totals. Durations are virtual nanoseconds on timed hosts.
type Stats struct {
	ChargeJitterEvents int64
	ChargeJitterNS     int64
	WakeDelays         int64
	WakeDelayNS        int64
	OverflowShrinks    int64
	MispredictDrops    int64
	BarrierSkews       int64
	BarrierSkewNS      int64
	FaultDelays        int64
	FaultDelayNS       int64
	CommitDelays       int64
	CommitDelayNS      int64
	LogStalls          int64
	LogStallNS         int64
	FollowerKills      int64
	FollowerStalls     int64
	FollowerStallNS    int64
	FollowerTears      int64
}

// Injector is one run's perturbation source: a profile plus a seed.
// Injectors are single-use per run (streams carry per-thread sequence
// state); create a fresh one for each runtime so replays line up.
// Counter updates are atomic, so a live metrics scrape may read Stats
// mid-run.
type Injector struct {
	prof Profile
	seed uint64

	chargeJitterEvents atomic.Int64
	chargeJitterNS     atomic.Int64
	wakeDelays         atomic.Int64
	wakeDelayNS        atomic.Int64
	overflowShrinks    atomic.Int64
	mispredictDrops    atomic.Int64
	barrierSkews       atomic.Int64
	barrierSkewNS      atomic.Int64
	faultDelays        atomic.Int64
	faultDelayNS       atomic.Int64
	commitDelays       atomic.Int64
	commitDelayNS      atomic.Int64
	logStalls          atomic.Int64
	logStallNS         atomic.Int64
	followerKills      atomic.Int64
	followerStalls     atomic.Int64
	followerStallNS    atomic.Int64
	followerTears      atomic.Int64
}

// New creates an injector for the named profile and seed.
func New(profile string, seed int64) (*Injector, error) {
	p, err := ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	return &Injector{prof: p, seed: uint64(seed)}, nil
}

// Parse builds an injector from a "profile:seed" spec (":seed" optional,
// default seed 1). The empty spec returns nil: chaos disabled.
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
	return New(name, seed)
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
	return Stats{
		ChargeJitterEvents: in.chargeJitterEvents.Load(),
		ChargeJitterNS:     in.chargeJitterNS.Load(),
		WakeDelays:         in.wakeDelays.Load(),
		WakeDelayNS:        in.wakeDelayNS.Load(),
		OverflowShrinks:    in.overflowShrinks.Load(),
		MispredictDrops:    in.mispredictDrops.Load(),
		BarrierSkews:       in.barrierSkews.Load(),
		BarrierSkewNS:      in.barrierSkewNS.Load(),
		FaultDelays:        in.faultDelays.Load(),
		FaultDelayNS:       in.faultDelayNS.Load(),
		CommitDelays:       in.commitDelays.Load(),
		CommitDelayNS:      in.commitDelayNS.Load(),
		LogStalls:          in.logStalls.Load(),
		LogStallNS:         in.logStallNS.Load(),
		FollowerKills:      in.followerKills.Load(),
		FollowerStalls:     in.followerStalls.Load(),
		FollowerStallNS:    in.followerStallNS.Load(),
		FollowerTears:      in.followerTears.Load(),
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

// ChargeJitter returns the extra nanoseconds to stretch an ns-long Charge
// by (0 when the knob is off or ns is 0).
func (s *Stream) ChargeJitter(ns int64) int64 {
	if s == nil || s.in.prof.ChargeJitterPct <= 0 || ns <= 0 {
		return 0
	}
	extra := ns * s.rng.Below(s.in.prof.ChargeJitterPct+1) / 100
	if extra > 0 {
		s.in.chargeJitterEvents.Add(1)
		s.in.chargeJitterNS.Add(extra)
	}
	return extra
}

// WakeDelay returns the nanoseconds to delay a wake by.
func (s *Stream) WakeDelay() int64 {
	if s == nil || s.in.prof.WakeDelayNS <= 0 {
		return 0
	}
	d := s.rng.Below(s.in.prof.WakeDelayNS + 1)
	if d > 0 {
		s.in.wakeDelays.Add(1)
		s.in.wakeDelayNS.Add(d)
	}
	return d
}

// OverflowInterval perturbs a counter-overflow interval, shrinking it by
// up to the profile's percentage. The result is always at least 1: a
// zero interval would stall instruction retirement entirely.
func (s *Stream) OverflowInterval(iv int64) int64 {
	if s == nil || s.in.prof.OverflowShrinkPct <= 0 || iv <= 1 {
		return iv
	}
	shrunk := iv - iv*s.rng.Below(s.in.prof.OverflowShrinkPct+1)/100
	if shrunk < 1 {
		shrunk = 1
	}
	if shrunk != iv {
		s.in.overflowShrinks.Add(1)
	}
	return shrunk
}

// FilterPrediction drops each predicted page with the profile's
// misprediction probability, filtering pages in place. Order is
// preserved, so a sorted prediction stays sorted.
func (s *Stream) FilterPrediction(pages []int) []int {
	if s == nil || s.in.prof.MispredictPct <= 0 || len(pages) == 0 {
		return pages
	}
	kept := pages[:0]
	dropped := int64(0)
	for _, pg := range pages {
		if s.rng.Below(100) < s.in.prof.MispredictPct {
			dropped++
			continue
		}
		kept = append(kept, pg)
	}
	if dropped > 0 {
		s.in.mispredictDrops.Add(dropped)
	}
	return kept
}

// BarrierSkew returns the nanoseconds to delay a barrier arrival by.
func (s *Stream) BarrierSkew() int64 {
	if s == nil || s.in.prof.BarrierSkewNS <= 0 {
		return 0
	}
	d := s.rng.Below(s.in.prof.BarrierSkewNS + 1)
	if d > 0 {
		s.in.barrierSkews.Add(1)
		s.in.barrierSkewNS.Add(d)
	}
	return d
}

// FaultDelay returns the extra nanoseconds to charge for servicing one
// copy-on-write fault of the given page.
func (s *Stream) FaultDelay(page int) int64 {
	if s == nil || s.in.prof.FaultDelayNS <= 0 {
		return 0
	}
	d := s.rng.Below(s.in.prof.FaultDelayNS + 1)
	if d > 0 {
		s.in.faultDelays.Add(1)
		s.in.faultDelayNS.Add(d)
	}
	return d
}

// LogStall returns the REAL nanoseconds to stall the commit-log drain
// goroutine by at one of its write points.
func (s *Stream) LogStall() int64 {
	if s == nil || s.in.prof.LogStallNS <= 0 {
		return 0
	}
	d := s.rng.Below(s.in.prof.LogStallNS + 1)
	if d > 0 {
		s.in.logStalls.Add(1)
		s.in.logStallNS.Add(d)
	}
	return d
}

// FollowerKill reports whether to kill the follower at this applied
// commit (a panic the fleet supervisor recovers and restarts from).
func (s *Stream) FollowerKill() bool {
	if s == nil || s.in.prof.FollowerKillPer10K <= 0 {
		return false
	}
	if s.rng.Below(10_000) >= s.in.prof.FollowerKillPer10K {
		return false
	}
	s.in.followerKills.Add(1)
	return true
}

// FollowerStall returns the REAL nanoseconds to stall a follower's apply
// loop by at this applied commit.
func (s *Stream) FollowerStall() int64 {
	if s == nil || s.in.prof.FollowerStallNS <= 0 {
		return 0
	}
	d := s.rng.Below(s.in.prof.FollowerStallNS + 1)
	if d > 0 {
		s.in.followerStalls.Add(1)
		s.in.followerStallNS.Add(d)
	}
	return d
}

// FollowerTear reports whether the follower's read should tear here:
// abandon the subscription as if the tail turned unreadable, exercising
// the resubscribe/backoff path.
func (s *Stream) FollowerTear() bool {
	if s == nil || s.in.prof.FollowerTearPer10K <= 0 {
		return false
	}
	if s.rng.Below(10_000) >= s.in.prof.FollowerTearPer10K {
		return false
	}
	s.in.followerTears.Add(1)
	return true
}

// CommitDelay returns the extra nanoseconds to charge a token-held serial
// commit phase.
func (s *Stream) CommitDelay() int64 {
	if s == nil || s.in.prof.CommitDelayNS <= 0 {
		return 0
	}
	d := s.rng.Below(s.in.prof.CommitDelayNS + 1)
	if d > 0 {
		s.in.commitDelays.Add(1)
		s.in.commitDelayNS.Add(d)
	}
	return d
}
