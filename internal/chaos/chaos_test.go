package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
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
	{"predict", func(in *Injector) *Stream { return in.PredictStream(1) }},
	{"fault", func(in *Injector) *Stream { return in.FaultStream(1) }},
	{"log", func(in *Injector) *Stream { return in.LogStream() }},
	{"follower", func(in *Injector) *Stream { return in.FollowerStream(1) }},
}

// goldenDraws is every draw method, fed a fixed argument sequence.
var goldenDraws = []func(s *Stream, i int) int64{
	func(s *Stream, i int) int64 { return s.ChargeJitter(int64(1000 + 37*i)) },
	func(s *Stream, _ int) int64 { return s.Delay(Wake) },
	func(s *Stream, i int) int64 { return s.OverflowInterval(int64(1 + 997*i)) },
	func(s *Stream, i int) int64 {
		var h int64
		for _, pg := range s.FilterPrediction([]int{i, i + 3, i + 5, i + 8, i + 13, i + 21}) {
			h = h*31 + int64(pg) + 1
		}
		return h
	},
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
// never be re-pinned to make a change pass.
var drawGolden = map[string]string{
	"barrier/host":            "f82fead85b0a59c8",
	"barrier/thread":          "4ccc24e20ada9018",
	"barrier/overflow":        "f364e25661d259a2",
	"barrier/predict":         "ef450579f5bbfb8b",
	"barrier/fault":           "d80872e310b378ee",
	"barrier/log":             "a14eca538e50f859",
	"barrier/follower":        "45814a2af6d2bdde",
	"follower-kill/host":      "db29dcc82b058d42",
	"follower-kill/thread":    "b5af89f27c35e2df",
	"follower-kill/overflow":  "cfb45d6d432830dc",
	"follower-kill/predict":   "4ec13da1e8713bac",
	"follower-kill/fault":     "5dd61ea833214e68",
	"follower-kill/log":       "f922e8428c9cd916",
	"follower-kill/follower":  "39a5f3047d246853",
	"follower-stall/host":     "e6bc0b3da3fa2c3d",
	"follower-stall/thread":   "160c2af54f83c752",
	"follower-stall/overflow": "a7f02993a37d94d4",
	"follower-stall/predict":  "7072eb2a66b10784",
	"follower-stall/fault":    "5cc27255d6431103",
	"follower-stall/log":      "53d5624ae2a69c41",
	"follower-stall/follower": "c0fefbb573349990",
	"follower-tear/host":      "5616d8a6c20818bf",
	"follower-tear/thread":    "4d04daef1f22d252",
	"follower-tear/overflow":  "a60794ff22626ef7",
	"follower-tear/predict":   "50a8e425bffe23ba",
	"follower-tear/fault":     "1053edcd459079e1",
	"follower-tear/log":       "85e631452804e63c",
	"follower-tear/follower":  "c212ddf11b38ec90",
	"jitter/host":             "7298fa1c65e8f8a5",
	"jitter/thread":           "57d6c0340f5581cc",
	"jitter/overflow":         "c15ef3352c23350e",
	"jitter/predict":          "113b269e6256576b",
	"jitter/fault":            "4400a5d364c84f6b",
	"jitter/log":              "afc5acfe9eafb4c1",
	"jitter/follower":         "0cf3b66db16d0f6f",
	"logstall/host":           "339ecc5788a9e1ba",
	"logstall/thread":         "ce2beb1649e38aca",
	"logstall/overflow":       "9c30cbeabb2e3fda",
	"logstall/predict":        "4c137be6cee83d31",
	"logstall/fault":          "9581756257e9ca57",
	"logstall/log":            "7a6e938c23ec4500",
	"logstall/follower":       "8f296f3f5cafc768",
	"mem/host":                "2afad98d544ca7f7",
	"mem/thread":              "60dac10d5d77e3b4",
	"mem/overflow":            "b58de1c23c84ecdc",
	"mem/predict":             "0328e2d63494b1cf",
	"mem/fault":               "f13aa908f1ce111f",
	"mem/log":                 "64e669e9a6105fb5",
	"mem/follower":            "66c74af9766a2041",
	"mispredict/host":         "09b6053d78a79057",
	"mispredict/thread":       "320d7a4b6699eca3",
	"mispredict/overflow":     "10775cbbfc19e298",
	"mispredict/predict":      "5c98d7411eda2192",
	"mispredict/fault":        "e8ffb4d23fe865ac",
	"mispredict/log":          "8db2591418688d9b",
	"mispredict/follower":     "ae18d2c7f46d3ff9",
	"overflow/host":           "195a3f3c06151523",
	"overflow/thread":         "41ff6398a940c8b1",
	"overflow/overflow":       "798e9637f3fbb292",
	"overflow/predict":        "9fcd8abcecfcef7d",
	"overflow/fault":          "194b507d488c2dce",
	"overflow/log":            "6ade735b19f8b7c8",
	"overflow/follower":       "fc59243127e1d0a7",
	"storm/host":              "682fe9fbec09aff3",
	"storm/thread":            "d9c04aa238f78bfa",
	"storm/overflow":          "68f847116c04baab",
	"storm/predict":           "23be3ced835b50e1",
	"storm/fault":             "71474f1476d58cb3",
	"storm/log":               "7ac758a203c01401",
	"storm/follower":          "1437d2b708f46c34",
	"token/host":              "6b6de1dc5072d5a5",
	"token/thread":            "a504cd6266c94cbd",
	"token/overflow":          "f36f77a917a4f91c",
	"token/predict":           "3b549b3b00140819",
	"token/fault":             "56f1e6b7138921ea",
	"token/log":               "c744acaae0127f82",
	"token/follower":          "1324da06247277f0",
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
	pages := []int{1, 2, 3}
	if got := s.FilterPrediction(pages); len(got) != 3 {
		t.Fatalf("nil stream filtered a prediction: %v", got)
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

// FilterPrediction may drop pages but must preserve order and never
// invent pages.
func TestFilterPredictionDropsInOrder(t *testing.T) {
	in := builtin(t, "mispredict", 11)
	s := in.PredictStream(0)
	orig := []int{2, 5, 9, 14, 20, 33, 40, 51}
	dropped := false
	for i := 0; i < 200; i++ {
		pages := append([]int(nil), orig...)
		got := s.FilterPrediction(pages)
		if len(got) < len(orig) {
			dropped = true
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("order not preserved: %v", got)
		}
		allowed := make(map[int]bool)
		for _, p := range orig {
			allowed[p] = true
		}
		for _, p := range got {
			if !allowed[p] {
				t.Fatalf("invented page %d in %v", p, got)
			}
		}
	}
	if !dropped {
		t.Fatal("mispredict profile never dropped a page in 200 rounds")
	}
	if in.Stats().Events[Mispredict] == 0 {
		t.Fatal("drops not counted")
	}

	// An empty prediction (an untrained site) stays empty and draws
	// nothing: the stream stays in step with one that never saw it.
	a, b := in.PredictStream(1), in.PredictStream(1)
	if got := a.FilterPrediction(nil); len(got) != 0 {
		t.Fatalf("empty prediction filtered to %v", got)
	}
	for i := 0; i < 20; i++ {
		x := a.FilterPrediction(append([]int(nil), orig...))
		if y := b.FilterPrediction(append([]int(nil), orig...)); !slices.Equal(x, y) {
			t.Fatalf("round %d after an empty prediction: %v, want %v", i, x, y)
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

// Stats must be safe to snapshot while streams inject from other
// goroutines (a mid-run registry snapshot). Run under -race.
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
