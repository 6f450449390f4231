package det_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/costmodel"
	"repro/internal/det"
	"repro/internal/host/simhost"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/trace"
)

// runJournaled executes prog with a journal attached and returns the
// journal path plus the run's checksum and trace.
func runJournaled(t *testing.T, c det.Config, path string, prog func(api.T)) (uint64, *trace.Recorder) {
	t.Helper()
	w, err := journal.Create(path, map[string]string{"prog": "test"})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := det.New(c, simhost.New(costmodel.Default()))
	if err != nil {
		t.Fatal(err)
	}
	rt.SetJournal(w)
	if err := rt.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return rt.Checksum(), rt.Trace()
}

// Journaling is observation only: checksum and sync trace must be
// byte-identical with the journal on or off, on every host — the
// racy-workload version of TestGateJournal (internal/harness).
func TestJournalDoesNotPerturbResults(t *testing.T) {
	for _, prog := range []struct {
		name string
		fn   func(api.T)
	}{{"counter", counterProg(4, 20)}, {"racy", racyProg(4)}} {
		t.Run(prog.name, func(t *testing.T) {
			for _, hm := range allHosts() {
				t.Run(hm.name, func(t *testing.T) {
					sum0, rec0, _ := run(t, cfg(), hm.mk(), prog.fn)

					path := filepath.Join(t.TempDir(), "run.csqj")
					w, err := journal.Create(path, nil)
					if err != nil {
						t.Fatal(err)
					}
					rt, err := det.New(cfg(), hm.mk())
					if err != nil {
						t.Fatal(err)
					}
					rt.SetJournal(w)
					if err := rt.Run(prog.fn); err != nil {
						t.Fatalf("run: %v", err)
					}
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					if sum := rt.Checksum(); sum != sum0 {
						t.Errorf("journaled checksum %x != %x", sum, sum0)
					}
					if h := rt.Trace().Hash(); h != rec0.Hash() {
						t.Errorf("journaled trace hash %x != %x", h, rec0.Hash())
					}
				})
			}
		})
	}
}

// Two identical runs must write byte-identical journals, and the decoded
// journal must reproduce the run's events, checkpoints and commits.
func TestJournalReproducibleAndComplete(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.csqj"), filepath.Join(dir, "b.csqj")
	prog := counterProg(4, 20)
	_, recA := runJournaled(t, cfg(), a, prog)
	_, _ = runJournaled(t, cfg(), b, prog)

	ba, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatal("identical runs wrote different journal bytes")
	}

	d, err := journal.Load(a)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(d.Events)) != recA.Len() {
		t.Fatalf("journal has %d events, trace recorded %d", len(d.Events), recA.Len())
	}
	if len(d.Commits) == 0 {
		t.Fatal("no commit records journaled")
	}
	for _, c := range d.Commits {
		if len(c.Pages) == 0 {
			t.Fatalf("commit version %d journaled with no pages", c.Version)
		}
	}
	wantCps := recA.Checkpoints()
	if len(d.Checkpoints) != len(wantCps) {
		t.Fatalf("journal has %d checkpoints, recorder %d", len(d.Checkpoints), len(wantCps))
	}
	// Journals from identical runs diff as equivalent.
	da, _ := journal.Load(a)
	db, _ := journal.Load(b)
	if rep := journal.Diff(da, db, journal.DiffOptions{}); rep.Kind != journal.DivNone {
		t.Fatalf("identical journals diverge: %s", rep.Detail)
	}
}

// journal_* metrics must appear once an observer and journal are both
// attached, in either order.
func TestJournalMetrics(t *testing.T) {
	for _, order := range []string{"journal-first", "observer-first"} {
		t.Run(order, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.csqj")
			w, err := journal.Create(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := det.New(cfg(), simhost.New(costmodel.Default()))
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New()
			if order == "journal-first" {
				rt.SetJournal(w)
				rt.SetObserver(o)
			} else {
				rt.SetObserver(o)
				rt.SetJournal(w)
			}
			if err := rt.Run(counterProg(2, 5)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got := map[string]int64{}
			for _, s := range o.Registry().Snapshot() {
				got[s.Name] = s.Value
			}
			if got["journal_events"] == 0 || got["journal_bytes"] == 0 || got["journal_commits"] == 0 {
				t.Fatalf("journal metrics missing or zero: %v", got)
			}
			st := w.Stats()
			if got["journal_events"] != st.Events {
				t.Fatalf("journal_events %d != writer stats %d", got["journal_events"], st.Events)
			}
		})
	}
}
