package litmus_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/simhost"
	"repro/internal/litmus"
)

// outcomes renders a set of outcomes, the first n registers of each, in
// a fixed order.
func outcomes(set map[litmus.Outcome]bool, n int) string {
	var s []string
	for o := range set {
		s = append(s, fmt.Sprint(o[:n]))
	}
	slices.Sort(s)
	return fmt.Sprint(s)
}

// TestMachine pins the oracle on what the literature says of each test:
// SB's relaxed outcome is TSO's and not SC's, MP forbids seeing the flag
// without the data under both, and a lock pair leaves only SC outcomes.
func TestMachine(t *testing.T) {
	relaxed := litmus.Outcome{0, 0}
	stale := litmus.Outcome{1, 0} // MP: the flag without the data
	for _, tc := range []struct {
		test    litmus.Test
		tso, sc int
	}{
		{litmus.SB, 4, 3},
		{litmus.SBLock, 3, 3},
		{litmus.MP, 3, 3},
		{litmus.MPLock, 3, 3},
	} {
		tso, sc := litmus.TSO(tc.test), litmus.SC(tc.test)
		if len(tso) != tc.tso || len(sc) != tc.sc {
			t.Errorf("%s: TSO %s, SC %s; want %d and %d outcomes", tc.test.Name, outcomes(tso, 2), outcomes(sc, 2), tc.tso, tc.sc)
		}
		for o := range sc {
			if !tso[o] {
				t.Errorf("%s: SC outcome %v is not TSO's", tc.test.Name, o[:2])
			}
		}
		if tc.test.Name[:2] == "MP" && tso[stale] {
			t.Errorf("%s: TSO reaches the flag without the data", tc.test.Name)
		}
		if tc.test.Name[:2] == "SB" && sc[relaxed] {
			t.Errorf("%s: SC reaches the relaxed outcome", tc.test.Name)
		}
	}
	if !litmus.TSO(litmus.SB)[relaxed] {
		t.Error("SB: TSO does not reach the relaxed outcome")
	}
}

// runLitmus runs test's program with padding seed on consequence-ic on the
// simulation host, and returns its outcome and trace hash.
func runLitmus(t *testing.T, test litmus.Test, seed int64, shards int) (litmus.Outcome, uint64) {
	t.Helper()
	c := det.Default()
	c.SegmentSize = 1 << 16
	c.EnableScaleOut(shards, len(test.Threads)+1)
	rt, err := det.New(c, simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	var o litmus.Outcome
	if err := rt.Run(test.Prog(seed, &o)); err != nil {
		t.Fatal(err)
	}
	return o, rt.Trace().Hash()
}

// TestConsequenceIsTSO runs every litmus test on consequence-ic over
// padding seeds 1-4 and shards {1, 4}. Every outcome is one the TSO
// machine reaches, a test fenced by lock pairs lands in the SC subset,
// and each cell replays to the same outcome and trace hash. Some seed
// shows SB's relaxed outcome: a thread's stores stay in its workspace
// until its next sync op, which is Consequence's store buffer (paper §2).
func TestConsequenceIsTSO(t *testing.T) {
	for _, test := range litmus.All() {
		tso, sc := litmus.TSO(test), litmus.SC(test)
		fenced := slices.ContainsFunc(test.Threads, func(th []litmus.Instr) bool { return slices.Contains(th, litmus.F) })
		seen := map[litmus.Outcome]bool{}
		for seed := int64(1); seed <= 4; seed++ {
			for _, shards := range []int{1, 4} {
				o, h := runLitmus(t, test, seed, shards)
				cell := fmt.Sprintf("%s seed %d shards %d", test.Name, seed, shards)
				if again, h2 := runLitmus(t, test, seed, shards); again != o || h2 != h {
					t.Errorf("%s: replay gave %v trace %016x, first run %v trace %016x", cell, again[:2], h2, o[:2], h)
				}
				if !tso[o] {
					t.Errorf("%s: outcome %v is outside TSO's %s", cell, o[:2], outcomes(tso, 2))
				}
				if fenced && !sc[o] {
					t.Errorf("%s: outcome %v is outside SC's %s", cell, o[:2], outcomes(sc, 2))
				}
				seen[o] = true
			}
		}
		t.Logf("%s: observed %s of TSO's %s", test.Name, outcomes(seen, 2), outcomes(tso, 2))
		if test.Name == litmus.SB.Name && !seen[litmus.Outcome{0, 0}] {
			t.Error("SB: no padding showed the relaxed outcome, though store buffering is how Consequence is TSO")
		}
	}
}
