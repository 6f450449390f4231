package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/host"
)

// Two injectors with the same (profile, seed) must produce identical
// streams, draw for draw — the replay property every chaos gate relies on.
func TestStreamsReplayExactly(t *testing.T) {
	mk := func() *Injector { return builtin(t, "storm", 7) }
	a, b := mk(), mk()
	for tid := 0; tid < 4; tid++ {
		sa, sb := a.ThreadStream(tid), b.ThreadStream(tid)
		for i := 0; i < 100; i++ {
			if x, y := sa.Delay(Barrier), sb.Delay(Barrier); x != y {
				t.Fatalf("tid %d draw %d: barrier skew %d != %d", tid, i, x, y)
			}
			if x, y := sa.Delay(Commit), sb.Delay(Commit); x != y {
				t.Fatalf("tid %d draw %d: commit delay %d != %d", tid, i, x, y)
			}
		}
	}

	// Every draw of every built-in profile is pinned: for each subsystem
	// stream, seeds 1-3 and each draw method (on a fresh stream, 64 draws),
	// the values and the injector's counters hash to drawGolden.
	for _, name := range Profiles() {
		for _, st := range goldenStreams {
			if got, want := streamDigest(t, name, st.mk), drawGolden[name+"/"+st.name]; got != want {
				t.Errorf("%s/%s: draw digest %s, want %s", name, st.name, got, want)
			}
		}
	}
}

// goldenStreams is one stream of each subsystem.
var goldenStreams = []struct {
	name string
	mk   func(*Injector) *Stream
}{
	{"host", func(in *Injector) *Stream { return in.HostStream(nameID("t1")) }},
	{"thread", func(in *Injector) *Stream { return in.ThreadStream(1) }},
	{"overflow", func(in *Injector) *Stream { return in.OverflowStream(1) }},
	{"fault", func(in *Injector) *Stream { return in.FaultStream(1) }},
	{"log", func(in *Injector) *Stream { return in.LogStream() }},
	{"follower", func(in *Injector) *Stream { return in.FollowerStream(1) }},
}

// goldenDraws is every draw method, fed a fixed argument sequence.
var goldenDraws = []func(s *Stream, i int) int64{
	func(s *Stream, i int) int64 { return s.ChargeJitter(int64(1000 + 37*i)) },
	func(s *Stream, _ int) int64 { return s.Delay(Wake) },
	func(s *Stream, i int) int64 { return s.OverflowInterval(int64(1 + 997*i)) },
	func(s *Stream, _ int) int64 { return s.Delay(Barrier) },
	func(s *Stream, _ int) int64 { return s.Delay(Fault) },
	func(s *Stream, _ int) int64 { return s.Delay(Commit) },
	func(s *Stream, _ int) int64 { return s.Delay(LogStall) },
	func(s *Stream, _ int) int64 { return b2i(s.Trigger(FollowerKill)) },
	func(s *Stream, _ int) int64 { return s.Delay(FollowerStall) },
	func(s *Stream, _ int) int64 { return b2i(s.Trigger(FollowerTear)) },
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// streamDigest hashes, for seeds 1-3, the first 64 draws of each method on
// a fresh stream and then the injector's counters.
func streamDigest(t *testing.T, profile string, mk func(*Injector) *Stream) string {
	h := fnv.New64a()
	var buf [8]byte
	for seed := int64(1); seed <= 3; seed++ {
		in := builtin(t, profile, seed)
		for _, draw := range goldenDraws {
			s := mk(in)
			for i := 0; i < 64; i++ {
				binary.LittleEndian.PutUint64(buf[:], uint64(draw(s, i)))
				h.Write(buf[:])
			}
		}
		st := in.Stats()
		h.Write([]byte(fmt.Sprint(st.Events, st.Amount)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// drawGolden was recorded before Profile became a knob vector; it must
// never be re-pinned to make a change pass. It was re-derived once, when
// the Mispredict knob, its profile and the prediction stream were
// deleted: the old digest hashed that stream, the FilterPrediction draw
// and 11-wide counter vectors, so it could not hold. The new values are
// the old code's digests with the predict stream, the FilterPrediction
// draw, the mispredict profile and the Mispredict counter column left
// out; every remaining draw is the old code's, unmoved.
var drawGolden = map[string]string{
	"barrier/host":            "e88907d23ec17cc1",
	"barrier/thread":          "0375c5d1c45bf479",
	"barrier/overflow":        "e46d5220e9ce9737",
	"barrier/fault":           "aca1320f8e4b0767",
	"barrier/log":             "c73e6a0942614580",
	"barrier/follower":        "5ff7ad90b762c44b",
	"follower-kill/host":      "484c3d759abb7157",
	"follower-kill/thread":    "44fbb52e4abd7c1a",
	"follower-kill/overflow":  "b96018fb114ff359",
	"follower-kill/fault":     "6c2bb7ddcb75f001",
	"follower-kill/log":       "3994081a4ac6ae39",
	"follower-kill/follower":  "ed16d104568ff60a",
	"follower-stall/host":     "09c98262f5fd2828",
	"follower-stall/thread":   "7facf8a3378320f3",
	"follower-stall/overflow": "f89965e526dcf461",
	"follower-stall/fault":    "a9f7ed8c9f1744ca",
	"follower-stall/log":      "6214b472abe96f9c",
	"follower-stall/follower": "55105fb86f391629",
	"follower-tear/host":      "520d93b49f8764ea",
	"follower-tear/thread":    "12a17e512d35e823",
	"follower-tear/overflow":  "afba0c4346fac3ee",
	"follower-tear/fault":     "0610df2055f89e1c",
	"follower-tear/log":       "34051d82138f4795",
	"follower-tear/follower":  "e82e33f2b9e8450d",
	"jitter/host":             "e90dd7ad4d9d53b0",
	"jitter/thread":           "abf2e495dfbe2119",
	"jitter/overflow":         "81cf113293a1ad1f",
	"jitter/fault":            "08db291dc33cefea",
	"jitter/log":              "166b0a82a0055ed4",
	"jitter/follower":         "8a3927f00287b9ce",
	"logstall/host":           "c554dcd6b96fe17b",
	"logstall/thread":         "b42eaade1b6b2a57",
	"logstall/overflow":       "b2031890d5af96c7",
	"logstall/fault":          "73577c7a0b44e8da",
	"logstall/log":            "c2e8dd131e66cacd",
	"logstall/follower":       "ce274a1f865444dd",
	"mem/host":                "134d826bfe433fda",
	"mem/thread":              "af5f103a0a542925",
	"mem/overflow":            "83a41abf290a0d61",
	"mem/fault":               "5f8197abbe799a32",
	"mem/log":                 "7ca575f1084c6ac8",
	"mem/follower":            "dbf203f7711ede00",
	"overflow/host":           "3c5309af1594bab2",
	"overflow/thread":         "f0954aec5037df34",
	"overflow/overflow":       "b8e9d49abd7666fb",
	"overflow/fault":          "ff1a91d66002c67b",
	"overflow/log":            "f4b6774b654e8ca1",
	"overflow/follower":       "2354929f2b5aacc2",
	"storm/host":              "9728cdda36ad85f7",
	"storm/thread":            "4cffbfc0b68fdd6b",
	"storm/overflow":          "1e647d70d67b789b",
	"storm/fault":             "1452150054b841a1",
	"storm/log":               "56651f17c6df7375",
	"storm/follower":          "92a4b4f561d76afa",
	"token/host":              "a9398307314b43a4",
	"token/thread":            "083fbd045942f844",
	"token/overflow":          "4780ed5e22f845fd",
	"token/fault":             "97847eda74aaee83",
	"token/log":               "ec846ad94970d107",
	"token/follower":          "f8bf352435a0772d",
}

// Streams of different subsystems and tids are independent: consuming one
// must not shift another's sequence.
func TestStreamIndependence(t *testing.T) {
	in := builtin(t, "storm", 3)
	ref := builtin(t, "storm", 3)

	// Drain lots of draws from unrelated streams.
	hs := in.HostStream(42)
	for i := 0; i < 1000; i++ {
		hs.Delay(Wake)
		in.FaultStream(1).Delay(Fault)
	}
	// tid 2's thread stream must be unaffected.
	got, want := in.ThreadStream(2), ref.ThreadStream(2)
	for i := 0; i < 50; i++ {
		if x, y := got.Delay(Commit), want.Delay(Commit); x != y {
			t.Fatalf("draw %d: %d != %d — cross-stream interference", i, x, y)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := builtin(t, "token", 1)
	b := builtin(t, "token", 2)
	sa, sb := a.HostStream(5), b.HostStream(5)
	same := true
	for i := 0; i < 32; i++ {
		if sa.Delay(Wake) != sb.Delay(Wake) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical wake-delay sequences")
	}
}

func TestParse(t *testing.T) {
	if in, err := Parse(""); err != nil || in != nil {
		t.Fatalf("empty spec: got (%v, %v), want (nil, nil)", in, err)
	}
	in, err := Parse("jitter")
	if err != nil {
		t.Fatal(err)
	}
	if in.Seed() != 1 || in.Profile().Name != "jitter" {
		t.Fatalf("default seed: got %s seed %d", in.Profile().Name, in.Seed())
	}
	in, err = Parse("storm:42")
	if err != nil {
		t.Fatal(err)
	}
	if in.String() != "storm:42" {
		t.Fatalf("round trip: %s", in.String())
	}
	if _, err := Parse("nosuch:1"); err == nil || !strings.Contains(err.Error(), "unknown profile") {
		t.Fatalf("unknown profile: err = %v", err)
	}
	if _, err := Parse("jitter:x"); err == nil || !strings.Contains(err.Error(), "bad seed") {
		t.Fatalf("bad seed: err = %v", err)
	}
}

func TestProfilesSortedAndResolvable(t *testing.T) {
	names := Profiles()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Profiles() not sorted: %v", names)
	}
	if len(names) < 3 {
		t.Fatalf("need at least 3 built-in profiles for the gate, have %v", names)
	}
	for _, n := range names {
		if p := builtin(t, n, 1).Profile(); p.Name != n || p.Amp == ([NumKnobs]int64{}) {
			t.Errorf("profile %q resolves to %+v", n, p)
		}
	}
}

// builtin is an injector on the named built-in profile.
func builtin(t *testing.T, name string, seed int64) *Injector {
	t.Helper()
	in, err := Parse(fmt.Sprintf("%s:%d", name, seed))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// A nil stream (chaos disabled) must be a no-op for every injection point.
func TestNilStreamSafe(t *testing.T) {
	var s *Stream
	for k := range NumKnobs {
		if s.Delay(k) != 0 || s.Trigger(k) {
			t.Fatalf("nil stream injected knob %d", k)
		}
	}
	if s.ChargeJitter(100) != 0 {
		t.Fatal("nil stream jittered a charge")
	}
	if iv := s.OverflowInterval(5000); iv != 5000 {
		t.Fatalf("nil stream changed overflow interval: %d", iv)
	}
}

// Follower streams must replay exactly and fire each fault class under
// its profile — the property the replica chaos gate's restart schedules
// depend on.
func TestFollowerStreamsReplayAndFire(t *testing.T) {
	type draw struct {
		kill, tear bool
		stall      int64
	}
	runOnce := func(profile string) []draw {
		in := builtin(t, profile, 9)
		var out []draw
		for id := 0; id < 3; id++ {
			s := in.FollowerStream(id)
			for i := 0; i < 2000; i++ {
				out = append(out, draw{kill: s.Trigger(FollowerKill), tear: s.Trigger(FollowerTear), stall: s.Delay(FollowerStall)})
			}
		}
		return out
	}
	for _, profile := range []string{"follower-kill", "follower-stall", "follower-tear"} {
		a, b := runOnce(profile), runOnce(profile)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s draw %d differs across replays: %+v != %+v", profile, i, a[i], b[i])
			}
		}
		kills, tears, stalls := 0, 0, 0
		for _, d := range a {
			if d.kill {
				kills++
			}
			if d.tear {
				tears++
			}
			if d.stall > 0 {
				stalls++
			}
		}
		switch profile {
		case "follower-kill":
			if kills == 0 {
				t.Fatal("follower-kill never killed in 6000 draws")
			}
		case "follower-tear":
			if tears == 0 {
				t.Fatal("follower-tear never tore in 6000 draws")
			}
		case "follower-stall":
			if stalls == 0 || kills != 0 || tears != 0 {
				t.Fatalf("follower-stall fired wrong classes: %d stalls, %d kills, %d tears", stalls, kills, tears)
			}
		}
	}
	in := builtin(t, "follower-kill", 9)
	s := in.FollowerStream(0)
	for i := 0; i < 2000; i++ {
		s.Trigger(FollowerKill)
		s.Delay(FollowerStall)
	}
	st := in.Stats()
	if st.Events[FollowerKill] == 0 || st.Events[FollowerStall] == 0 || st.Amount[FollowerStall] == 0 {
		t.Fatalf("follower stats did not count: %+v", st)
	}
}

// Perturbed overflow intervals must stay >= 1 (a zero interval would stall
// instruction retirement) and never grow.
func TestOverflowIntervalBounds(t *testing.T) {
	in := builtin(t, "overflow", 9)
	s := in.OverflowStream(0)
	for i := 0; i < 5000; i++ {
		iv := s.OverflowInterval(1 + int64(i%7))
		if iv < 1 {
			t.Fatalf("interval %d < 1", iv)
		}
		if iv > 1+int64(i%7) {
			t.Fatalf("interval grew: %d > %d", iv, 1+i%7)
		}
	}
}

func TestStatsCount(t *testing.T) {
	in := builtin(t, "storm", 4)
	s := in.ThreadStream(0)
	for i := 0; i < 100; i++ {
		s.Delay(Barrier)
		s.Delay(Commit)
	}
	st := in.Stats()
	if st.Events[Barrier] == 0 || st.Events[Commit] == 0 {
		t.Fatalf("stats did not count: %+v", st)
	}
	if st.Amount[Barrier] <= 0 || st.Amount[Commit] <= 0 {
		t.Fatalf("stats did not accumulate durations: %+v", st)
	}
}

// Stats must be safe to read while streams inject from other goroutines
// (a caller of det.Runtime.Metrics on another goroutine). Run under -race.
func TestStatsConcurrentScrape(t *testing.T) {
	in := builtin(t, "storm", 5)
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				in.Stats()
			}
		}
	}()
	var workers sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		workers.Add(1)
		go func(tid int) {
			defer workers.Done()
			s := in.ThreadStream(tid)
			for i := 0; i < 10000; i++ {
				s.Delay(Commit)
			}
		}(tid)
	}
	workers.Wait()
	close(stop)
	scraper.Wait()
}

// fakeHost records charges and wakes for wrapper tests.
type fakeHost struct {
	timed   bool
	charged int64
	woken   int
}

type fakeBinding struct{ h *fakeHost }

func (h *fakeHost) Go(name string, parent host.Binding, fn func(host.Binding)) {
	fn(&fakeBinding{h: h})
}
func (h *fakeHost) Run() error                  { return nil }
func (h *fakeHost) Timed() bool                 { return h.timed }
func (b *fakeBinding) Now() int64               { return b.h.charged }
func (b *fakeBinding) Charge(ns int64)          { b.h.charged += ns }
func (b *fakeBinding) Block(host.BlockReason)   {}
func (b *fakeBinding) Wake(target host.Binding) { b.h.woken++ }

func TestWrapHostNilInjector(t *testing.T) {
	h := &fakeHost{}
	if got := WrapHost(h, nil); got != host.Host(h) {
		t.Fatal("nil injector must return the host unchanged")
	}
}

// The wrapper must stretch charges (jitter) and charge wake delays on a
// timed host, and the perturbed virtual time must replay exactly.
func TestWrapHostChargesJitterDeterministically(t *testing.T) {
	runOnce := func() int64 {
		in := builtin(t, "storm", 6)
		h := &fakeHost{timed: true}
		wh := WrapHost(h, in)
		wh.Go("t0", nil, func(b host.Binding) {
			var peer fakeBinding
			peer.h = h
			for i := 0; i < 200; i++ {
				b.Charge(1000)
				b.Wake(&peer)
			}
		})
		if h.woken != 200 {
			t.Fatalf("wakes not forwarded: %d", h.woken)
		}
		return h.charged
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("perturbed charge totals differ across replays: %d != %d", a, b)
	}
	if a <= 200*1000 {
		t.Fatalf("no jitter or wake delay injected: charged %d", a)
	}
}

// Rand is splitmix64 exactly: the reference generator's published first
// outputs for state 0, and NewRand's (seed, id, salt) derivation, which
// the replica backoff and the versioned-read sweep digest depend on.
func TestRandIsSplitMix64(t *testing.T) {
	var r Rand
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Next(); got != want {
			t.Fatalf("draw %d from state 0: %016x, want %016x", i, got, want)
		}
	}
	a, b := NewRand(5, 2, 0x7265706c696361), NewRand(5, 2, 0x7265706c696361)
	other := NewRand(5, 3, 0x7265706c696361)
	differs := false
	for i := 0; i < 20; i++ {
		x := a.Below(1000)
		if y := b.Below(1000); x != y {
			t.Fatalf("draw %d: %d != %d across replays", i, x, y)
		}
		if x < 0 || x >= 1000 {
			t.Fatalf("draw %d: %d outside [0, 1000)", i, x)
		}
		if x != other.Below(1000) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("ids 2 and 3 drew identical sequences")
	}
	if got, want := NewRand(1, 0, 0x636f6e736571).state, uint64(0x9e3779b97f4a7c15+0x636f6e736571); got != want {
		t.Fatalf("NewRand(1, 0, salt) state %016x, want %016x", got, want)
	}
}
