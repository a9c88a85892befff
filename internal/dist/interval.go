// Package dist is the fault-tolerant shard coordinator over the
// collapsed pc-range. The paper's payoff — a non-rectangular nest
// becomes a single flat range pc = 1..total — makes the work trivially
// partitionable into contiguous shards and makes *exact* progress
// tracking possible: a completed shard is just a closed pc-interval.
//
// The coordinator (Run) splits the range into shards and hands them to
// executor goroutines, one attempt per shard at a time. A failed shard
// goes straight back to the queue until its retry budget is spent, then
// splits, then (optionally) forces the whole run down the uncollapsed
// fallback before failing with a typed faults error. Progress lands in
// an append-only checkpoint journal (completed pc-intervals + a run
// fingerprint) so an interrupted run resumes exactly where it stopped,
// executing only the uncovered intervals. See DESIGN.md "Sharded
// execution & recovery protocol" for the shard state machine and the
// exactly-once argument.
package dist

import "sort"

// Interval is a closed pc-interval [Lo, Hi] of the collapsed range
// (1-based inclusive bounds, matching the paper's pc = 1..total loop).
type Interval struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// Len is the number of ranks the interval covers.
func (iv Interval) Len() int64 { return iv.Hi - iv.Lo + 1 }

// IntervalSet is a set of covered pc-ranks, maintained as sorted
// disjoint closed intervals. The zero value is the empty set. It is the
// coordinator's committed-progress ledger, and the journal replay's:
// Add collapses duplicate replayed records into exactly-once coverage.
type IntervalSet struct {
	ivs     []Interval
	covered int64
}

// Covered is the number of ranks in the set.
func (s *IntervalSet) Covered() int64 { return s.covered }

// Intervals returns the sorted disjoint intervals (a copy).
func (s *IntervalSet) Intervals() []Interval {
	return append([]Interval(nil), s.ivs...)
}

// Contains reports whether every rank of iv is already in the set.
func (s *IntervalSet) Contains(iv Interval) bool {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= iv.Lo })
	return i < len(s.ivs) && s.ivs[i].Lo <= iv.Lo && iv.Hi <= s.ivs[i].Hi
}

// Overlap returns how many ranks of iv are already covered: 0 means iv
// is entirely new, iv.Len() means it is a full duplicate, anything in
// between is a partial overlap the commit protocol refuses (sums of a
// partially-covered attempt cannot be attributed).
func (s *IntervalSet) Overlap(iv Interval) int64 {
	ov := int64(0)
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= iv.Lo })
	for ; i < len(s.ivs) && s.ivs[i].Lo <= iv.Hi; i++ {
		lo, hi := s.ivs[i].Lo, s.ivs[i].Hi
		if lo < iv.Lo {
			lo = iv.Lo
		}
		if hi > iv.Hi {
			hi = iv.Hi
		}
		ov += hi - lo + 1
	}
	return ov
}

// Add merges iv into the set and returns how many ranks were newly
// covered (0 for an exact duplicate or fully-overlapped interval).
// Overlapping and adjacent intervals coalesce, so the representation
// stays linear in the number of coverage gaps, not completions.
func (s *IntervalSet) Add(iv Interval) (added int64) {
	if iv.Lo > iv.Hi {
		return 0
	}
	// Find the window of existing intervals that touch or overlap iv
	// (adjacency counts: [1,3] and [4,6] merge into [1,6]).
	first := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= iv.Lo-1 })
	last := first
	for last < len(s.ivs) && s.ivs[last].Lo <= iv.Hi+1 {
		last++
	}
	if first == last {
		// No overlap: plain insertion.
		s.ivs = append(s.ivs, Interval{})
		copy(s.ivs[first+1:], s.ivs[first:])
		s.ivs[first] = iv
		s.covered += iv.Len()
		return iv.Len()
	}
	merged := iv
	overlapped := int64(0)
	for i := first; i < last; i++ {
		e := s.ivs[i]
		overlapped += e.Len()
		if e.Lo < merged.Lo {
			merged.Lo = e.Lo
		}
		if e.Hi > merged.Hi {
			merged.Hi = e.Hi
		}
	}
	s.ivs[first] = merged
	s.ivs = append(s.ivs[:first+1], s.ivs[last:]...)
	added = merged.Len() - overlapped
	s.covered += added
	return added
}

// Complement returns the ranks of [lo, hi] not in the set, as sorted
// disjoint intervals — the uncovered work a resumed run must execute.
func (s *IntervalSet) Complement(lo, hi int64) []Interval {
	var out []Interval
	cur := lo
	for _, iv := range s.ivs {
		if iv.Hi < cur {
			continue
		}
		if iv.Lo > hi {
			break
		}
		if iv.Lo > cur {
			out = append(out, Interval{Lo: cur, Hi: iv.Lo - 1})
		}
		if iv.Hi+1 > cur {
			cur = iv.Hi + 1
		}
		if cur > hi {
			return out
		}
	}
	if cur <= hi {
		out = append(out, Interval{Lo: cur, Hi: hi})
	}
	return out
}
