package mem

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestSpareOwnership runs, beside the model, each sequence that decides
// where a commit's version header comes from: the block of its first small
// diff (packLocked, from the segment's chunks) or an allocation of its own.
// Workspace 0 and 1 live on an 8-page segment, and 0 ends with a change
// pending that its Release drops. A version with a small diff must be that
// diff's header: the first small diff's runs sit right behind it, in one
// block.
func TestSpareOwnership(t *testing.T) {
	const p = DefaultPageSize
	for _, seq := range []struct {
		name   string
		spares int // versions published on a small diff's header
		ops    []op
	}{
		{"two small pages, one header", 1, []op{
			write(0, 2*p+10, 1, 0x21),
			write(0, 2*p+300, 4, 0x22), // a second run in the same small diff
			write(0, 4*p, 1, 0x41),     // a second small diff: no header of its own
			commit(0),
		}},
		{"a small and a large page, one a merge", 2, []op{
			write(0, 3*p, 8, 0x31),
			write(0, 5*p+100, 40, 0x51), // a large diff: two allocations of its own
			write(1, 3*p+8, 8, 0xb3),    // 1's commit makes 0's page 3 a merge
			commit(1),
			commit(0),
		}},
		{"Discard, then commit", 1, []op{
			write(0, 2*p, 1, 0x23),
			on(opDiscard, 0, 0),
			write(0, 2*p+1, 1, 0x24),
			commit(0),
		}},
		{"Rebind, then commit", 1, []op{
			write(0, 6*p+64, 8, 0x61),
			on(opRebind, 0, 9),
			commit(9), // committer 9: the header takes the tid at commit
		}},
		{"a page written back to its twin", 0, []op{
			// Page 1 goes back to its twin, so it has no diff: the version
			// publishes page 4 alone, on a header of its own.
			write(0, p+5, 1, 0x11),
			write(0, p+5, 1, 0),
			write(0, 4*p, 32, 0x41),
			commit(0),
			// Again with nothing else dirty: nothing is published.
			write(0, p+6, 1, 0x12),
			write(0, p+6, 1, 0),
			commit(0),
		}},
	} {
		t.Run(seq.name, func(t *testing.T) {
			spares, seen := 0, map[*Version]bool{}
			ops := append(snapshots(2), seq.ops...)
			ops = append(ops, readable, write(0, 7*p+40, 2, 0x77))
			runModel(t, geometry{p, 8, 0, 2}, ops, func(r *modelRun) {
				r.check = func(r *modelRun) error {
					v := r.published
					if v == nil || seen[v] {
						return nil
					}
					seen[v] = true
					for i := range v.slots {
						if d := v.slots[i].diff; smallDiff(len(d.Runs), d.Bytes()) {
							if uintptr(unsafe.Pointer(&d.Runs[0]))-uintptr(unsafe.Pointer(v)) != unsafe.Sizeof(Version{}) {
								return fmt.Errorf("v%d: page %d's small diff is not in the version's block", v.Num, v.slots[i].page)
							}
							spares++
							break
						}
					}
					return nil
				}
			})
			if spares != seq.spares {
				t.Errorf("%d versions published on a small diff's header, want %d", spares, seq.spares)
			}
		})
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
