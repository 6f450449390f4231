package litmus_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/baseline/dthreads"
	"repro/internal/baseline/dwc"
	"repro/internal/baseline/pth"
	"repro/internal/baseline/rfdet"
	"repro/internal/clock"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host"
	"repro/internal/host/realhost"
	"repro/internal/host/simhost"
	"repro/internal/litmus"
)

// outcome builds the outcome with final memory x, y and the registers
// regs, in order.
func outcome(x, y uint64, regs ...uint64) litmus.Outcome {
	o := litmus.Outcome{Mem: [litmus.Locs]uint64{x, y}}
	copy(o.Regs[:], regs)
	return o
}

// show renders o as the registers test loads and the locations it
// stores, one digit each: SB's relaxed outcome is r00/m11, R's r0/m12.
func show(test litmus.Test, o litmus.Outcome) string {
	regs, locs := 0, 0
	for _, th := range test.Threads {
		for _, in := range th {
			switch in.Kind {
			case litmus.Load:
				regs = max(regs, in.Reg+1)
			case litmus.Store:
				locs = max(locs, in.Loc+1)
			}
		}
	}
	digits := func(vs []uint64) string {
		var b strings.Builder
		for _, v := range vs {
			fmt.Fprint(&b, v)
		}
		return b.String()
	}
	return "r" + digits(o.Regs[:regs]) + "/m" + digits(o.Mem[:locs])
}

// outcomes renders a set of test's outcomes in a fixed order.
func outcomes(test litmus.Test, set map[litmus.Outcome]bool) string {
	var s []string
	for o := range set {
		s = append(s, show(test, o))
	}
	slices.Sort(s)
	return fmt.Sprint(s)
}

// checkFloor holds a runtime's observed outcomes of test to a floor: every
// outcome in floor must be among those seen inside TSO, or the runtime has
// lost reach it had. An outcome seen beyond the floor is only logged, as
// is the coverage, k of TSO's outcomes.
func checkFloor(t *testing.T, who string, test litmus.Test, seen map[litmus.Outcome]bool, floor []string) {
	t.Helper()
	tso := litmus.TSO(test)
	got := map[string]bool{}
	for o := range seen {
		if tso[o] {
			got[show(test, o)] = true
		}
	}
	covered := len(got)
	for _, o := range floor {
		if !got[o] {
			t.Errorf("%s %s: no cell shows %s, which the floor pins; seen inside TSO: %s", who, test.Name, o, outcomes(test, seen))
		}
		delete(got, o)
	}
	for o := range got {
		t.Logf("%s %s: %s is seen beyond the floor", who, test.Name, o)
	}
	t.Logf("%s %s: covers %d/%d of TSO", who, test.Name, covered, len(tso))
}

// TestMachine pins the oracle on what the literature says of each test:
// how many outcomes TSO and SC reach, which outcomes neither reaches (MP's
// flag without the data, LB's loads both seeing the other's store, IRIW's
// readers disagreeing on the store order, 2+2W's first stores both
// surviving, and SB's relaxed outcome once a lock pair fences both
// threads, whether the lock is shared or each thread's own), which
// outcomes TSO adds to SC (exactly SB's and R's relaxed ones, and SB's
// again when only one thread is fenced), and which tests obey the flush
// discipline: for those, Cohen & Schirmer's reduction theorem says TSO
// reaches exactly SC's outcomes, and the machine agrees.
func TestMachine(t *testing.T) {
	sbRelaxed := outcome(1, 1, 0, 0)
	stale := outcome(1, 1, 1, 0) // MP: the flag without the data
	for _, tc := range []struct {
		test      litmus.Test
		tso, sc   int
		flushed   bool
		forbidden []litmus.Outcome // reached by neither
		relaxed   []litmus.Outcome // every outcome TSO reaches and SC does not
	}{
		{litmus.SB, 4, 3, false, nil, []litmus.Outcome{sbRelaxed}},
		{litmus.SBLock, 3, 3, true, []litmus.Outcome{sbRelaxed}, nil},
		{litmus.SBLockPO, 4, 3, false, nil, []litmus.Outcome{sbRelaxed}},
		{litmus.MP, 3, 3, true, []litmus.Outcome{stale}, nil},
		{litmus.MPLock, 3, 3, true, []litmus.Outcome{stale}, nil},
		{litmus.LB, 3, 3, true, []litmus.Outcome{outcome(1, 1, 1, 1)}, nil},
		{litmus.IRIW, 15, 15, true, []litmus.Outcome{outcome(1, 1, 1, 0, 1, 0)}, nil},
		{litmus.TwoPlusTwoW, 3, 3, true, []litmus.Outcome{outcome(1, 1)}, nil},
		{litmus.R, 4, 3, false, nil, []litmus.Outcome{outcome(1, 2, 0)}},
		{litmus.SBOwn, 3, 3, true, []litmus.Outcome{sbRelaxed}, nil},
		{litmus.MPOwn, 3, 3, true, []litmus.Outcome{stale}, nil},
	} {
		name := tc.test.Name
		tso, sc := litmus.TSO(tc.test), litmus.SC(tc.test)
		if len(tso) != tc.tso || len(sc) != tc.sc {
			t.Errorf("%s: TSO %s, SC %s; want %d and %d outcomes", name, outcomes(tc.test, tso), outcomes(tc.test, sc), tc.tso, tc.sc)
		}
		if got := litmus.Flushed(tc.test); got != tc.flushed {
			t.Errorf("%s: Flushed %t, want %t", name, got, tc.flushed)
		}
		if tc.flushed && !maps.Equal(tso, sc) {
			t.Errorf("%s is flushed, but TSO reaches %s and SC %s", name, outcomes(tc.test, tso), outcomes(tc.test, sc))
		}
		for o := range sc {
			if !tso[o] {
				t.Errorf("%s: SC outcome %s is not TSO's", name, show(tc.test, o))
			}
		}
		for _, o := range tc.forbidden {
			if tso[o] {
				t.Errorf("%s: TSO reaches the forbidden %s", name, show(tc.test, o))
			}
		}
		for _, o := range tc.relaxed {
			if !tso[o] || sc[o] {
				t.Errorf("%s: %s is TSO's %v and SC's %v; want TSO's only", name, show(tc.test, o), tso[o], sc[o])
			}
		}
		for o := range tso {
			if !sc[o] && !slices.Contains(tc.relaxed, o) {
				t.Errorf("%s: TSO reaches %s beyond SC", name, show(tc.test, o))
			}
		}
	}
}

// runLitmus runs test's program with padding seed and bound pad and
// placement place on consequence-ic on h, and returns its outcome, trace
// hash and the number of versions and committed pages.
func runLitmus(t *testing.T, h host.Host, test litmus.Test, seed int64, place litmus.Placement, pad int64, shards int) (o litmus.Outcome, hash uint64, versions, pages int64) {
	t.Helper()
	c := det.Default()
	c.SegmentSize = 1 << 16
	c.EnableScaleOut(shards, len(test.Threads)+1)
	rt, err := det.New(c, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(test.Prog(seed, place, pad, &o)); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	return o, rt.Trace().Hash(), st.Versions, st.CommittedPages
}

// storesTwice reports whether some thread of test stores two locations
// with no fence between them: under a spread placement that thread's
// commit publishes both locations' pages in one version. (A load's
// register write may publish a page too, unless it wrote the 0 already
// there, so loads prove nothing.)
func storesTwice(test litmus.Test) bool {
	for _, th := range test.Threads {
		stores := 0 // since the last fence
		for _, in := range th {
			switch in.Kind {
			case litmus.Fence:
				stores = 0
			case litmus.Store:
				if stores++; stores == 2 {
					return true
				}
			}
		}
	}
	return false
}

// TestConsequenceIsTSO runs every litmus test on consequence-ic under each
// placement (spawn order in order or reversed, locations packed into one
// page or spread one per page) over padding bounds litmus.Pads(), padding
// seeds 1-4 and shards {1, 2, 4, 8}. Every outcome — registers and final
// memory — is one the TSO machine reaches, a test that obeys the flush
// discipline (litmus.Flushed) lands in the SC subset, and each cell replays
// to the same outcome and trace hash on the simulation host; at the widest
// bound, litmus.MaxPad, it also does on a real host that sleeps up to
// 200 µs, drawn from the seed, before each block and wake. A packed cell
// publishes only one-page versions; a spread cell of a test with two
// unfenced stores in a thread (MP, 2+2W, R) publishes a multi-page one, so
// the oracle judges both commit shapes. Some cell shows SB's relaxed
// outcome: a thread's stores stay in its workspace until its next sync op,
// which is Consequence's store buffer (paper §2). So does SB+lock+po, whose
// one lock pair does not flush the other thread.
//
// The thread-private fences hold too. SB+own is flushed, so it lands in
// SC, and some cell of MP+own shows the reader the flag, and with it the
// data: any sync op publishes the thread's writes and pulls everyone's,
// which is TSO's drain. Under lazy release consistency a lock no other
// thread takes carries nothing, and the reader would never see the flag.
//
// Every location starts on a never-written page, and a spread cell gives
// each its own, so their first stores fault the shared zero page: the twin
// each fault lends (mem's dirtyPage.lent) is that page, and the twins a
// later sync op's pull window copies are committed pages other threads
// still read. The oracle judges what those twins make of the diffs.
//
// What the cells show together is held to consequenceFloor: a change that
// loses an outcome the runtime reached fails, one that gains an outcome
// logs it (checkFloor).
func TestConsequenceIsTSO(t *testing.T) {
	for _, test := range litmus.All() {
		tso, sc := litmus.TSO(test), litmus.SC(test)
		flushed := litmus.Flushed(test)
		seen := map[litmus.Outcome]bool{}
		for _, pad := range litmus.Pads() {
			seenAt := map[litmus.Outcome]bool{}
			for _, place := range litmus.Placements() {
				for seed := int64(1); seed <= 4; seed++ {
					for _, shards := range []int{1, 2, 4, 8} {
						o, h, versions, pages := runLitmus(t, simhost.New(costmodel.Default()), test, seed, place, pad, shards)
						cell := fmt.Sprintf("%s %v pad %d seed %d shards %d", test.Name, place, pad, seed, shards)
						if again, h2, _, _ := runLitmus(t, simhost.New(costmodel.Default()), test, seed, place, pad, shards); again != o || h2 != h {
							t.Errorf("%s: replay gave %s trace %016x, first run %s trace %016x", cell, show(test, again), h2, show(test, o), h)
						}
						if pad == litmus.MaxPad {
							if real, h2, _, _ := runLitmus(t, realhost.New(200*time.Microsecond, seed), test, seed, place, pad, shards); real != o || h2 != h {
								t.Errorf("%s: the perturbed real host gave %s trace %016x, the simulation host %s trace %016x", cell, show(test, real), h2, show(test, o), h)
							}
						}
						if !tso[o] {
							t.Errorf("%s: outcome %s is outside TSO's %s", cell, show(test, o), outcomes(test, tso))
						}
						if flushed && !sc[o] {
							t.Errorf("%s: outcome %s is outside SC's %s", cell, show(test, o), outcomes(test, sc))
						}
						if multi := pages > versions; multi && !place.Spread {
							t.Errorf("%s: packed, yet %d versions publish %d pages", cell, versions, pages)
						} else if !multi && place.Spread && storesTwice(test) {
							t.Errorf("%s: spread with two unfenced stores, yet %d versions publish %d pages", cell, versions, pages)
						}
						seenAt[o] = true
						seen[o] = true
					}
				}
			}
			t.Logf("%s pad %d: observed %s", test.Name, pad, outcomes(test, seenAt))
		}
		t.Logf("%s: observed %s of TSO's %s", test.Name, outcomes(test, seen), outcomes(test, tso))
		checkFloor(t, "consequence-ic", test, seen, consequenceFloor[test.Name])
		if (test.Name == litmus.SB.Name || test.Name == litmus.SBLockPO.Name) && !seen[outcome(1, 1, 0, 0)] {
			t.Errorf("%s: no padding showed the relaxed outcome, though store buffering is how Consequence is TSO", test.Name)
		}
		if test.Name == litmus.MPOwn.Name && !seen[outcome(1, 1, 1, 1)] {
			t.Errorf("%s: no cell saw the flag across the thread-private locks", test.Name)
		}
	}
}

// baselines builds, per runtime name, the comparison runtimes on a fresh
// simulation host, each with the segment runLitmus gives consequence-ic.
var baselines = []struct {
	name  string
	build func(h host.Host) (api.Runtime, error)
}{
	{"consequence-rr", func(h host.Host) (api.Runtime, error) {
		c := det.Default()
		c.SegmentSize = 1 << 16
		c.Policy = clock.PolicyRR
		return det.New(c, h)
	}},
	{"dthreads", func(h host.Host) (api.Runtime, error) {
		return dthreads.New(dthreads.Config{SegmentSize: 1 << 16, Model: costmodel.Default()}, h)
	}},
	{"dwc", func(h host.Host) (api.Runtime, error) {
		return dwc.New(dwc.Config{SegmentSize: 1 << 16, Model: costmodel.Default()}, h)
	}},
	{"rfdet-lrc", func(h host.Host) (api.Runtime, error) {
		return rfdet.New(rfdet.Config{SegmentSize: 1 << 16, Model: costmodel.Default()}, h)
	}},
	{"pthreads", func(h host.Host) (api.Runtime, error) {
		return pth.New(pth.Config{SegmentSize: 1 << 16, Model: costmodel.Default()}, h)
	}},
}

// TestBaselinesLitmus runs every litmus test on the comparison runtimes
// on the simulation host, over the four placements and padding seeds 1-2
// at litmus.MaxPad. Every outcome is inside TSO but one: rfdet-lrc on
// SB+own shows 00 in every cell, which no TSO machine reaches — a
// private lock's release carries nothing to a thread that never takes
// it, so lazy release consistency is weaker than TSO, and this is the
// cell that tells the two apart. SB's relaxed 00 is pinned per runtime:
// dthreads and rfdet-lrc, which keep a thread's stores private until its
// next fence, show it in every cell; consequence-rr and dwc, whose round
// robin runs each litmus thread's straight-line code in one turn, never
// do. What each runtime's cells show inside TSO is held to baselineFloor,
// as consequence-ic's is to consequenceFloor.
func TestBaselinesLitmus(t *testing.T) {
	sbRelaxed := outcome(1, 1, 0, 0)
	for _, rt := range baselines {
		for _, test := range litmus.All() {
			tso := litmus.TSO(test)
			seen := map[litmus.Outcome]int{}
			reached := map[litmus.Outcome]bool{}
			cells := 0
			for _, place := range litmus.Placements() {
				for seed := int64(1); seed <= 2; seed++ {
					r, err := rt.build(simhost.New(costmodel.Default()))
					if err != nil {
						t.Fatal(err)
					}
					var o litmus.Outcome
					if err := r.Run(test.Prog(seed, place, litmus.MaxPad, &o)); err != nil {
						t.Fatal(err)
					}
					cell := fmt.Sprintf("%s %s %v seed %d", rt.name, test.Name, place, seed)
					switch {
					case rt.name == "rfdet-lrc" && test.Name == litmus.SBOwn.Name:
						if o != sbRelaxed {
							t.Errorf("%s: outcome %s, want LRC's 00 outside TSO's %s", cell, show(test, o), outcomes(test, tso))
						}
					case !tso[o]:
						t.Errorf("%s: outcome %s is outside TSO's %s", cell, show(test, o), outcomes(test, tso))
					}
					seen[o]++
					reached[o] = true
					cells++
				}
			}
			var counts []string
			for o, n := range seen {
				counts = append(counts, fmt.Sprintf("%s: %d", show(test, o), n))
			}
			slices.Sort(counts)
			t.Logf("%s %s: %v", rt.name, test.Name, counts)
			checkFloor(t, rt.name, test, reached, baselineFloor[rt.name][test.Name])
			if test.Name != litmus.SB.Name {
				continue
			}
			switch rt.name {
			case "dthreads", "rfdet-lrc":
				if seen[sbRelaxed] != cells {
					t.Errorf("%s SB: relaxed 00 in %d of %d cells, want every cell", rt.name, seen[sbRelaxed], cells)
				}
			case "consequence-rr", "dwc":
				if seen[sbRelaxed] != 0 {
					t.Errorf("%s SB: relaxed 00 in %d of %d cells, want none", rt.name, seen[sbRelaxed], cells)
				}
			}
		}
	}
}

// consequenceFloor pins, per test, the outcomes inside TSO that
// TestConsequenceIsTSO's cells show on consequence-ic. MP shows 2 of
// TSO's 3 and IRIW 5 of its 15.
var consequenceFloor = map[string][]string{
	"SB":         {"r00/m11", "r01/m11", "r10/m11"},
	"SB+lock":    {"r01/m11", "r10/m11"},
	"SB+lock+po": {"r00/m11", "r01/m11", "r10/m11"},
	"MP":         {"r00/m11", "r11/m11"},
	"MP+lock":    {"r00/m11", "r01/m11"},
	"LB":         {"r00/m11", "r01/m11", "r10/m11"},
	"IRIW":       {"r0000/m11", "r0011/m11", "r1001/m11", "r1011/m11", "r1111/m11"},
	"2+2W":       {"r/m12", "r/m21"},
	"R":          {"r0/m11", "r0/m12", "r1/m12"},
	"SB+own":     {"r01/m11", "r10/m11", "r11/m11"},
	"MP+own":     {"r00/m11", "r01/m11", "r11/m11"},
}

// baselineFloor pins, per runtime and test, the outcomes inside TSO that
// TestBaselinesLitmus's cells show. rfdet-lrc shows none on SB+own: its
// one outcome there, 00, is outside TSO.
var baselineFloor = map[string]map[string][]string{
	"consequence-rr": {
		"SB":         {"r01/m11", "r10/m11"},
		"SB+lock":    {"r01/m11", "r10/m11"},
		"SB+lock+po": {"r01/m11", "r10/m11"},
		"MP":         {"r00/m11", "r11/m11"},
		"MP+lock":    {"r00/m11", "r01/m11"},
		"LB":         {"r01/m11", "r10/m11"},
		"IRIW":       {"r0000/m11", "r1111/m11"},
		"2+2W":       {"r/m12", "r/m21"},
		"R":          {"r0/m11", "r1/m12"},
		"SB+own":     {"r01/m11", "r10/m11"},
		"MP+own":     {"r01/m11", "r11/m11"},
	},
	"dthreads": {
		"SB":         {"r00/m11"},
		"SB+lock":    {"r01/m11", "r10/m11"},
		"SB+lock+po": {"r00/m11", "r10/m11"},
		"MP":         {"r00/m11"},
		"MP+lock":    {"r00/m11", "r01/m11"},
		"LB":         {"r00/m11"},
		"IRIW":       {"r0000/m11", "r1011/m11"},
		"2+2W":       {"r/m12", "r/m21"},
		"R":          {"r0/m11", "r0/m12"},
		"SB+own":     {"r01/m11", "r10/m11"},
		"MP+own":     {"r01/m11", "r11/m11"},
	},
	"dwc": {
		"SB":         {"r01/m11", "r10/m11"},
		"SB+lock":    {"r01/m11", "r10/m11"},
		"SB+lock+po": {"r01/m11", "r10/m11"},
		"MP":         {"r00/m11", "r11/m11"},
		"MP+lock":    {"r00/m11", "r01/m11"},
		"LB":         {"r01/m11", "r10/m11"},
		"IRIW":       {"r0000/m11", "r1111/m11"},
		"2+2W":       {"r/m12", "r/m21"},
		"R":          {"r0/m11", "r1/m12"},
		"SB+own":     {"r01/m11", "r10/m11"},
		"MP+own":     {"r01/m11", "r11/m11"},
	},
	"rfdet-lrc": {
		"SB":         {"r00/m11"},
		"SB+lock":    {"r01/m11", "r10/m11"},
		"SB+lock+po": {"r00/m11"},
		"MP":         {"r00/m11"},
		"MP+lock":    {"r00/m11", "r01/m11"},
		"LB":         {"r00/m11"},
		"IRIW":       {"r0000/m11"},
		"2+2W":       {"r/m12", "r/m21"},
		"R":          {"r0/m11", "r0/m12"},
		"MP+own":     {"r00/m11"},
	},
	"pthreads": {
		"SB":         {"r01/m11", "r10/m11"},
		"SB+lock":    {"r01/m11", "r10/m11"},
		"SB+lock+po": {"r01/m11", "r10/m11"},
		"MP":         {"r00/m11", "r11/m11"},
		"MP+lock":    {"r00/m11", "r11/m11"},
		"LB":         {"r01/m11", "r10/m11"},
		"IRIW":       {"r0000/m11", "r1111/m11"},
		"2+2W":       {"r/m12", "r/m21"},
		"R":          {"r0/m11", "r1/m12"},
		"SB+own":     {"r01/m11", "r10/m11"},
		"MP+own":     {"r00/m11", "r11/m11"},
	},
}
