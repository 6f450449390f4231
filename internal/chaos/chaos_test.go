package chaos

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/host"
)

// Two injectors with the same (profile, seed) must produce identical
// streams, draw for draw — the replay property every chaos gate relies on.
func TestStreamsReplayExactly(t *testing.T) {
	mk := func() *Injector {
		in, err := New("storm", 7)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(), mk()
	for tid := 0; tid < 4; tid++ {
		sa, sb := a.ThreadStream(tid), b.ThreadStream(tid)
		for i := 0; i < 100; i++ {
			if x, y := sa.BarrierSkew(), sb.BarrierSkew(); x != y {
				t.Fatalf("tid %d draw %d: barrier skew %d != %d", tid, i, x, y)
			}
			if x, y := sa.CommitDelay(), sb.CommitDelay(); x != y {
				t.Fatalf("tid %d draw %d: commit delay %d != %d", tid, i, x, y)
			}
		}
	}
}

// Streams of different subsystems and tids are independent: consuming one
// must not shift another's sequence.
func TestStreamIndependence(t *testing.T) {
	in, _ := New("storm", 3)
	ref, _ := New("storm", 3)

	// Drain lots of draws from unrelated streams.
	hs := in.HostStream(42)
	for i := 0; i < 1000; i++ {
		hs.WakeDelay()
		in.FaultStream(1).FaultDelay(i)
	}
	// tid 2's thread stream must be unaffected.
	got, want := in.ThreadStream(2), ref.ThreadStream(2)
	for i := 0; i < 50; i++ {
		if x, y := got.CommitDelay(), want.CommitDelay(); x != y {
			t.Fatalf("draw %d: %d != %d — cross-stream interference", i, x, y)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, _ := New("token", 1)
	b, _ := New("token", 2)
	sa, sb := a.HostStream(5), b.HostStream(5)
	same := true
	for i := 0; i < 32; i++ {
		if sa.WakeDelay() != sb.WakeDelay() {
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
		if _, err := ProfileByName(n); err != nil {
			t.Fatal(err)
		}
	}
}

// A nil stream (chaos disabled) must be a no-op for every injection point.
func TestNilStreamSafe(t *testing.T) {
	var s *Stream
	if s.ChargeJitter(100) != 0 || s.WakeDelay() != 0 || s.BarrierSkew() != 0 ||
		s.FaultDelay(3) != 0 || s.CommitDelay() != 0 {
		t.Fatal("nil stream injected a delay")
	}
	if iv := s.OverflowInterval(5000); iv != 5000 {
		t.Fatalf("nil stream changed overflow interval: %d", iv)
	}
	pages := []int{1, 2, 3}
	if got := s.FilterPrediction(pages); len(got) != 3 {
		t.Fatalf("nil stream filtered a prediction: %v", got)
	}
	if s.FollowerKill() || s.FollowerTear() || s.FollowerStall() != 0 || s.LogStall() != 0 {
		t.Fatal("nil stream injected a follower fault")
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
		in, err := New(profile, 9)
		if err != nil {
			t.Fatal(err)
		}
		var out []draw
		for id := 0; id < 3; id++ {
			s := in.FollowerStream(id)
			for i := 0; i < 2000; i++ {
				out = append(out, draw{kill: s.FollowerKill(), tear: s.FollowerTear(), stall: s.FollowerStall()})
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
	in, _ := New("follower-kill", 9)
	s := in.FollowerStream(0)
	for i := 0; i < 2000; i++ {
		s.FollowerKill()
		s.FollowerStall()
	}
	st := in.Stats()
	if st.FollowerKills == 0 || st.FollowerStalls == 0 || st.FollowerStallNS == 0 {
		t.Fatalf("follower stats did not count: %+v", st)
	}
}

// Perturbed overflow intervals must stay >= 1 (a zero interval would stall
// instruction retirement) and never grow.
func TestOverflowIntervalBounds(t *testing.T) {
	in, _ := New("overflow", 9)
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
	in, _ := New("mispredict", 11)
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
	if in.Stats().MispredictDrops == 0 {
		t.Fatal("drops not counted")
	}
}

func TestStatsCount(t *testing.T) {
	in, _ := New("storm", 4)
	s := in.ThreadStream(0)
	for i := 0; i < 100; i++ {
		s.BarrierSkew()
		s.CommitDelay()
	}
	st := in.Stats()
	if st.BarrierSkews == 0 || st.CommitDelays == 0 {
		t.Fatalf("stats did not count: %+v", st)
	}
	if st.BarrierSkewNS <= 0 || st.CommitDelayNS <= 0 {
		t.Fatalf("stats did not accumulate durations: %+v", st)
	}
}

// Stats must be safe to snapshot while streams inject from other
// goroutines (the live metrics scrape path). Run under -race.
func TestStatsConcurrentScrape(t *testing.T) {
	in, _ := New("storm", 5)
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
				s.CommitDelay()
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
func (b *fakeBinding) Block()                   {}
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
		in, _ := New("storm", 6)
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
