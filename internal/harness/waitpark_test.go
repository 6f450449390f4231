package harness

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/host"
	"repro/internal/host/simhost"
	"repro/internal/mem"
)

// parkLog is a host around simhost that records, per host thread, every
// Block the thread makes and every acquisition det reports for it through
// Hooks, in the thread's own order. simhost runs one thread at a time and
// switches only inside Charge and Block, so the thread that last returned
// from one of them (or started) is the one a hook fires on.
type parkLog struct {
	inner   host.Host
	threads []*parkBinding
	cur     *parkBinding
}

// parkEvent is a Block (park) on reason label and obj, or an acquisition
// of obj.
type parkEvent struct {
	park  bool
	label string
	obj   uint64
}

type parkBinding struct {
	log    *parkLog
	inner  host.Binding
	events []parkEvent
}

func (h *parkLog) Go(name string, parent host.Binding, fn func(host.Binding)) {
	b := &parkBinding{log: h}
	h.threads = append(h.threads, b)
	if p, ok := parent.(*parkBinding); ok {
		parent = p.inner
	}
	h.inner.Go(name, parent, func(ib host.Binding) {
		b.inner = ib
		h.cur = b
		fn(b)
	})
}

func (h *parkLog) Run() error  { return h.inner.Run() }
func (h *parkLog) Timed() bool { return h.inner.Timed() }

func (h *parkLog) OnAcquire(_ int, obj uint64) {
	h.cur.events = append(h.cur.events, parkEvent{obj: obj})
}
func (h *parkLog) OnRelease(int, uint64)      {}
func (h *parkLog) OnCommit(int, *mem.Version) {}
func (h *parkLog) OnSpawn(int, int)           {}

func (b *parkBinding) Now() int64 { return b.inner.Now() }

func (b *parkBinding) Charge(ns int64) {
	b.inner.Charge(ns)
	b.log.cur = b
}

func (b *parkBinding) Block(r host.BlockReason) {
	b.events = append(b.events, parkEvent{park: true, label: r.Label, obj: r.ID})
	b.inner.Block(r)
	b.log.cur = b
}

func (b *parkBinding) Wake(target host.Binding) { b.inner.Wake(target.(*parkBinding).inner) }

// WakeFrom forwards the anchored wakes of the sharded scheduler; without
// it det would fall back to plain wakes and virtual time would move.
func (b *parkBinding) WakeFrom(target host.Binding, origin int64) {
	b.inner.(host.AnchoredWaker).WakeFrom(target.(*parkBinding).inner, origin)
}

// waitParks counts the Waits in the log, the parks they make, and the
// Waits that park more than once. A Wait parks on its cond. Woken, it
// acquires the cond (OnAcquire), then either acquires the mutex or parks on
// it and retries, so its parks are the cond park and the mutex parks up to
// its thread's next acquisition. Nothing else the thread does comes in
// between, so the counts are exact.
func (h *parkLog) waitParks(t *testing.T) (waits, parks, twice int) {
	for _, b := range h.threads {
		ev := b.events
		for i, e := range ev {
			if !e.park || e.label != "cond %d" {
				continue
			}
			if i+1 >= len(ev) || ev[i+1].park || ev[i+1].obj != e.obj {
				t.Fatalf("cond %d park not followed by the acquisition of the cond: %+v", e.obj, ev[i:])
			}
			n := 1
			for _, f := range ev[i+2:] {
				if !f.park {
					break
				}
				if f.label != "mutex %d" {
					t.Fatalf("a Wait parked on %q after its cond", f.label)
				}
				n++
			}
			waits++
			parks += n
			if n > 1 {
				twice++
			}
		}
	}
	return waits, parks, twice
}

// TestWaitParksTwice pins how often a cond-var Wait parks twice (ROADMAP
// item 1(iv)): woken by a signal holding the token, it finds the mutex
// still held by the signaler and parks again on the mutex. That second
// park is what wait-morphing removes, so these are the counts it must
// lower. The pipelines run at scale 8 and 4 threads, on the single token
// and at 4 shards; the wrapped run must take exactly the virtual time of
// an unwrapped one.
func TestWaitParksTwice(t *testing.T) {
	for _, c := range []struct {
		bench               string
		shards              int
		waits, parks, twice int
	}{
		{"ferret", 1, 1393, 2784, 1391},
		{"ferret", 4, 1393, 2784, 1391},
		{"dedup", 1, 336, 672, 336},
		{"dedup", 4, 343, 686, 343},
	} {
		o := Options{Bench: c.bench, Runtime: KindConsequenceIC, Threads: 4, Scale: 8, Seed: 42, Shards: c.shards}
		plain, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		h := &parkLog{inner: simhost.New(costmodel.Default())}
		cell, err := Build(o, h)
		if err != nil {
			t.Fatal(err)
		}
		cell.Det.SetHooks(h)
		res, err := cell.Run()
		cell.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.WallNS != plain.WallNS || res.Checksum != plain.Checksum || res.TraceHash != plain.TraceHash {
			t.Errorf("%s shards=%d: logged run took %d ns (checksum %016x, trace %016x), unlogged %d ns (%016x, %016x)",
				c.bench, c.shards, res.WallNS, res.Checksum, res.TraceHash, plain.WallNS, plain.Checksum, plain.TraceHash)
		}
		waits, parks, twice := h.waitParks(t)
		t.Logf("%s shards=%d: %d sync ops, %d Waits, %d parks in them, %d park more than once",
			c.bench, c.shards, res.Stats.SyncOps, waits, parks, twice)
		if waits != c.waits || parks != c.parks || twice != c.twice {
			t.Errorf("%s shards=%d: %d Waits, %d parks, %d park more than once; want %d, %d, %d",
				c.bench, c.shards, waits, parks, twice, c.waits, c.parks, c.twice)
		}
	}
}
