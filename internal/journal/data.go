package journal

import "fmt"

// Perturb plants one deliberate divergence in a loaded history — the
// self-test fuel for Diff (conseq-diff -perturb and TestGateJournal).
// Mode "swap-grant" swaps the adjacent events at seq at and at+1;
// "flip-page" flips the first page hash of commit index at.
func (d *Data) Perturb(mode string, at int64) error {
	i := int(at)
	switch mode {
	case "swap-grant":
		if i < 0 || i+1 >= len(d.Events) {
			return fmt.Errorf("swap-grant site %d out of range (the history has %d events)", at, len(d.Events))
		}
		// Swap the two adjacent grants but keep the seq column honest:
		// the divergence is the reordering, not a renumbering artifact.
		d.Events[i], d.Events[i+1] = d.Events[i+1], d.Events[i]
		d.Events[i].Seq, d.Events[i+1].Seq = int64(i), int64(i+1)
	case "flip-page":
		if i < 0 || i >= len(d.Commits) {
			return fmt.Errorf("flip-page site %d out of range (the history has %d commits)", at, len(d.Commits))
		}
		if len(d.Commits[i].Pages) == 0 {
			return fmt.Errorf("commit %d has no pages to flip", at)
		}
		d.Commits[i].Pages[0].Hash ^= 1 << 63
	default:
		return fmt.Errorf("unknown perturbation %q (want swap-grant or flip-page)", mode)
	}
	return nil
}
