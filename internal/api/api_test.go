package api

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// memT is a trivial in-memory T implementation for testing the typed
// accessors.
type memT struct {
	buf  [64]byte
	word [8]byte
}

func (m *memT) Word() *[8]byte          { return &m.word }
func (m *memT) Tid() int                { return 0 }
func (m *memT) Compute(int64)           {}
func (m *memT) Read(b []byte, off int)  { copy(b, m.buf[off:]) }
func (m *memT) Write(b []byte, off int) { copy(m.buf[off:], b) }
func (m *memT) NewMutex() Mutex         { return nil }
func (m *memT) NewCond() Cond           { return nil }
func (m *memT) NewBarrier(int) Barrier  { return nil }
func (m *memT) Lock(Mutex)              {}
func (m *memT) Unlock(Mutex)            {}
func (m *memT) Wait(Cond, Mutex)        {}
func (m *memT) Signal(Cond)             {}
func (m *memT) Broadcast(Cond)          {}
func (m *memT) BarrierWait(Barrier)     {}
func (m *memT) Spawn(func(T)) Handle    { return nil }
func (m *memT) Join(Handle)             {}

func TestU64Roundtrip(t *testing.T) {
	f := func(v uint64, off uint8) bool {
		m := &memT{}
		o := int(off % 56)
		PutU64(m, o, v)
		return U64(m, o) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestI64Roundtrip(t *testing.T) {
	m := &memT{}
	for _, v := range []int64{0, -1, math.MinInt64, math.MaxInt64, 42} {
		PutI64(m, 8, v)
		if got := I64(m, 8); got != v {
			t.Errorf("I64 roundtrip %d -> %d", v, got)
		}
	}
}

func TestF64Roundtrip(t *testing.T) {
	m := &memT{}
	for _, v := range []float64{0, -1.5, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
		PutF64(m, 16, v)
		if got := F64(m, 16); got != v {
			t.Errorf("F64 roundtrip %v -> %v", v, got)
		}
	}
	// NaN preserves its bit pattern through the byte roundtrip.
	PutF64(m, 16, math.NaN())
	if !math.IsNaN(F64(m, 16)) {
		t.Error("NaN lost")
	}
}

func TestU32Roundtrip(t *testing.T) {
	m := &memT{}
	PutU32(m, 4, 0xDEADBEEF)
	if got := U32(m, 4); got != 0xDEADBEEF {
		t.Errorf("U32 = %x", got)
	}
}

func TestAddHelpers(t *testing.T) {
	m := &memT{}
	if got := AddU64(m, 0, 5); got != 5 {
		t.Errorf("AddU64 first = %d", got)
	}
	if got := AddU64(m, 0, 7); got != 12 {
		t.Errorf("AddU64 second = %d", got)
	}
	PutF64(m, 8, 1.5)
	if got := AddF64(m, 8, 2.25); got != 3.75 {
		t.Errorf("AddF64 = %v", got)
	}
	if got := F64(m, 8); got != 3.75 {
		t.Errorf("AddF64 did not store: %v", got)
	}
}

func TestEndianness(t *testing.T) {
	m := &memT{}
	PutU64(m, 0, 0x0102030405060708)
	var b [8]byte
	m.Read(b[:], 0)
	if b[0] != 0x08 || b[7] != 0x01 {
		t.Errorf("not little-endian: % x", b)
	}
}

// The clock and the trace are built on these two: a drift in either moves
// every modeled number or every trace hash on one runtime only.
func TestMemInstrAndObjID(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int64
	}{{0, 2}, {1, 3}, {4, 3}, {8, 3}, {9, 4}, {16, 4}, {64, 10}, {4096, 514}} {
		if got := MemInstr(tc.n); got != tc.want {
			t.Errorf("MemInstr(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	for _, tc := range []struct {
		tid  int
		seq  uint64
		want uint64
	}{{0, 1, 1}, {0, 2, 2}, {1, 1, 1<<32 | 1}, {3, 7, 3<<32 | 7}, {1 << 20, 1, 1<<52 | 1}} {
		if got := ObjID(tc.tid, tc.seq); got != tc.want {
			t.Errorf("ObjID(%d, %d) = %#x, want %#x", tc.tid, tc.seq, got, tc.want)
		}
	}
}

func TestAddThreadFoldsCategoriesAndMakespan(t *testing.T) {
	var s RunStats
	a := ThreadTime{Tid: 1, LocalWork: 10, DetermWait: 20, BarrierWait: 30, Commit: 40, Fault: 50, Lib: 60}
	b := ThreadTime{Tid: 0, LocalWork: 1, Lib: 2}
	s.AddThread(a, 5, 900)
	s.AddThread(b, 2, 300) // an earlier finish must not pull the makespan back
	want := RunStats{
		WallNS: 900, LocalWorkNS: 11, DetermWaitNS: 20, BarrierWaitNS: 30,
		CommitNS: 40, FaultNS: 50, LibNS: 62, SyncOps: 7,
	}
	got := s
	got.PerThread = nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("totals %+v, want %+v", got, want)
	}
	if len(s.PerThread) != 2 || s.PerThread[0] != a || s.PerThread[1] != b {
		t.Errorf("PerThread = %+v", s.PerThread)
	}
}
