package extfs

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"ptsbench/internal/freeset"
	"ptsbench/internal/sim"
)

// sliceAllocator is the sorted-slice rotating allocator the freeset-based
// one replaced, kept verbatim as the behavioural reference: the new
// allocator must choose exactly the same pages.
type sliceAllocator struct {
	free      []extent // sorted by start, non-overlapping, non-adjacent
	totalFree int64
	cursor    int64
	base      int64
	limit     int64
}

func newSliceAllocator(base, n int64) *sliceAllocator {
	return &sliceAllocator{
		free:      []extent{{start: base, n: n}},
		totalFree: n,
		cursor:    base,
		base:      base,
		limit:     base + n,
	}
}

func (a *sliceAllocator) allocate(n int64) ([]extent, error) {
	if n > a.totalFree {
		return nil, fmt.Errorf("%w (want %d pages, have %d)", ErrNoSpace, n, a.totalFree)
	}
	var out []extent
	remaining := n
	wrapped := false
	for remaining > 0 {
		i := a.firstFreeAt(a.cursor)
		if i == len(a.free) {
			if wrapped {
				panic("extfs: allocator inconsistency")
			}
			a.cursor = a.base
			wrapped = true
			continue
		}
		e := &a.free[i]
		start := e.start
		if start < a.cursor {
			start = a.cursor
		}
		avail := e.start + e.n - start
		take := avail
		if take > remaining {
			take = remaining
		}
		out = append(out, extent{start: start, n: take})
		a.carve(i, start, take)
		a.totalFree -= take
		remaining -= take
		a.cursor = start + take
		if a.cursor >= a.limit {
			a.cursor = a.base
			wrapped = true
		}
	}
	return out, nil
}

func (a *sliceAllocator) firstFreeAt(p int64) int {
	return sort.Search(len(a.free), func(i int) bool {
		return a.free[i].start+a.free[i].n > p
	})
}

func (a *sliceAllocator) carve(i int, start, take int64) {
	e := a.free[i]
	leftN := start - e.start
	rightN := (e.start + e.n) - (start + take)
	switch {
	case leftN == 0 && rightN == 0:
		a.free = append(a.free[:i], a.free[i+1:]...)
	case leftN == 0:
		a.free[i] = extent{start: start + take, n: rightN}
	case rightN == 0:
		a.free[i] = extent{start: e.start, n: leftN}
	default:
		a.free[i] = extent{start: e.start, n: leftN}
		rest := extent{start: start + take, n: rightN}
		a.free = append(a.free, extent{})
		copy(a.free[i+2:], a.free[i+1:])
		a.free[i+1] = rest
	}
}

func (a *sliceAllocator) release(e extent) {
	i := sort.Search(len(a.free), func(i int) bool {
		return a.free[i].start >= e.start
	})
	a.free = append(a.free, extent{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = e
	a.totalFree += e.n
	if i+1 < len(a.free) && a.free[i].start+a.free[i].n == a.free[i+1].start {
		a.free[i].n += a.free[i+1].n
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].start+a.free[i-1].n == a.free[i].start {
		a.free[i-1].n += a.free[i].n
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// freeExtents lists a's free set in order through its public query.
func freeExtents(t *testing.T, a *allocator) []freeset.Extent {
	t.Helper()
	var out []freeset.Extent
	for e, ok := a.free.FirstEndingAfter(0); ok; e, ok = a.free.FirstEndingAfter(e.End()) {
		if len(out) > 0 && e.Start < out[len(out)-1].End() {
			t.Fatalf("FirstEndingAfter(%d) = %+v, which starts before that page", out[len(out)-1].End(), e)
		}
		out = append(out, e)
	}
	return out
}

// TestAllocatorMatchesSliceReference runs the allocator and the old
// sorted-slice one in lockstep through a long seeded file-churn sequence
// and requires identical extents, errors, cursor, free set and free
// total after every step. The sequence is sized to reach every branch of
// the policy; the test fails if one was never taken.
func TestAllocatorMatchesSliceReference(t *testing.T) {
	const base, n = metaPages, 4096
	a := newAllocator(base, n)
	ref := newSliceAllocator(base, n)
	var files [][]extent // held allocations, like a filesystem's files
	var multiPiece, wraps, noSpace, oneSided int
	rng := sim.NewRNG(13)
	release := func(e extent) {
		before := len(ref.free)
		a.release(e)
		ref.release(e)
		if len(ref.free) == before {
			oneSided++
		}
	}
	for step := 0; step < 20000; step++ {
		if rng.Uint64n(100) < 45 || len(files) == 0 {
			want := int64(rng.Uint64n(48) + 1)
			if rng.Uint64n(20) == 0 {
				want = int64(rng.Uint64n(1500) + 1) // big: many pieces, or no space
			}
			before := ref.cursor
			got, err := a.allocate(want)
			refGot, refErr := ref.allocate(want)
			if (err != nil) != (refErr != nil) || (err != nil && !errors.Is(err, ErrNoSpace)) {
				t.Fatalf("step %d: allocate(%d) error %v, reference %v", step, want, err, refErr)
			}
			if err != nil {
				noSpace++
			}
			if len(got) != len(refGot) {
				t.Fatalf("step %d: allocate(%d) = %v, reference %v", step, want, got, refGot)
			}
			for i := range got {
				if got[i] != refGot[i] {
					t.Fatalf("step %d: allocate(%d) piece %d = %+v, reference %+v", step, want, i, got[i], refGot[i])
				}
			}
			if len(got) > 1 {
				multiPiece++
			}
			if err == nil && ref.cursor <= before {
				wraps++
			}
			if err == nil {
				files = append(files, append([]extent(nil), got...))
			}
		} else {
			i := int(rng.Uint64n(uint64(len(files))))
			last := &files[i][len(files[i])-1]
			if last.n > 1 && rng.Uint64n(3) == 0 {
				// Release one end of a piece and keep the other held,
				// so the released part can merge on its free side only.
				cut := int64(rng.Uint64n(uint64(last.n-1)) + 1)
				front, back := extent{last.start, cut}, extent{last.start + cut, last.n - cut}
				if rng.Uint64n(2) == 0 {
					*last = back
					release(front)
				} else {
					*last = front
					release(back)
				}
			} else {
				for _, e := range files[i] {
					release(e)
				}
				files = append(files[:i], files[i+1:]...)
			}
		}
		if a.cursor != ref.cursor {
			t.Fatalf("step %d: cursor %d, reference %d", step, a.cursor, ref.cursor)
		}
		if a.free.Total() != ref.totalFree {
			t.Fatalf("step %d: free total %d, reference %d", step, a.free.Total(), ref.totalFree)
		}
		got := freeExtents(t, a)
		if len(got) != len(ref.free) {
			t.Fatalf("step %d: %d free extents, reference %d", step, len(got), len(ref.free))
		}
		for i, e := range got {
			if e.Start != ref.free[i].start || e.Pages != ref.free[i].n {
				t.Fatalf("step %d: free[%d] = %+v, reference %+v", step, i, e, ref.free[i])
			}
		}
	}
	t.Logf("multi-piece %d, wraps %d, no-space %d, one-sided merges %d", multiPiece, wraps, noSpace, oneSided)
	if multiPiece == 0 || wraps == 0 || noSpace == 0 || oneSided == 0 {
		t.Fatalf("sequence missed a branch: multi-piece %d, wraps %d, no-space %d, one-sided merges %d",
			multiPiece, wraps, noSpace, oneSided)
	}
}

// TestAllocatorSteadyStateAllocatesNothing pins the property that keeps
// the allocator off the heap profile under LSM churn: once the free set
// is fragmented and warmed up, allocate/release recycles treap nodes and
// reuses the scratch slice, so churn allocates nothing.
func TestAllocatorSteadyStateAllocatesNothing(t *testing.T) {
	const slots, maxPieces = 64, 64
	a := newAllocator(metaPages, 1<<15)
	// Live "files", each a fixed array of extents so the bookkeeping
	// itself allocates nothing; each op replaces a random one, which
	// fragments the free set the way out-of-order SST deletion does.
	var files [slots][maxPieces]extent
	var pieces [slots]int
	rng := sim.NewRNG(5)
	churn := func() {
		f := rng.Uint64n(slots)
		for _, e := range files[f][:pieces[f]] {
			a.release(e)
		}
		got, err := a.allocate(int64(rng.Uint64n(400) + 1))
		if err != nil || len(got) > maxPieces {
			panic(fmt.Sprintf("churn: %d pieces, %v", len(got), err))
		}
		pieces[f] = copy(files[f][:], got)
	}
	for i := 0; i < 20000; i++ {
		churn()
	}
	if n := len(freeExtents(t, a)); n < 16 {
		t.Fatalf("warm-up left only %d free extents; the churn is not fragmenting", n)
	}
	if allocs := testing.AllocsPerRun(2000, churn); allocs != 0 {
		t.Fatalf("allocate/release churn: %v heap allocations per op, want 0", allocs)
	}
}
