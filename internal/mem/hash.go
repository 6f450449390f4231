package mem

import "hash/fnv"

// HashPage returns the FNV-1a hash of one page's content: the per-page
// hash the divergence search (internal/journal) compares commits by,
// taken over a commit log's replayed pages.
func HashPage(data []byte) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// Checksum is the FNV-1a hash of the segment's final committed state,
// pages ascending: the checksum a runtime over the segment reports.
func (s *Segment) Checksum() uint64 {
	h := fnv.New64a()
	buf := make([]byte, s.PageSize())
	at := s.Head()
	for pg := 0; pg < s.NumPages(); pg++ {
		s.ReadCommitted(buf, pg*s.PageSize(), at)
		h.Write(buf)
	}
	return h.Sum64()
}

// ChecksumSparse hashes a sparsely stored replica of a segment — npages
// pages ascending, pages absent from the map as zeros — to the same
// FNV-1a value Checksum computes over the live segment's committed state.
func ChecksumSparse(pages map[int][]byte, npages, pageSize int) uint64 {
	h := fnv.New64a()
	zero := make([]byte, pageSize)
	for pg := 0; pg < npages; pg++ {
		if buf, ok := pages[pg]; ok {
			h.Write(buf)
		} else {
			h.Write(zero)
		}
	}
	return h.Sum64()
}
