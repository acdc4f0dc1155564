package freeset

import (
	"sort"
	"testing"

	"ptsbench/internal/sim"
)

// refSet is the sorted-slice free set the treap replaced, kept as the
// behavioural reference. alloc and release are extalloc's old
// lowest-offset first fit; FirstEndingAfter and Carve are the queries
// extfs's old rotating allocator made of its slice.
type refSet struct {
	free []Extent
}

func (r *refSet) alloc(n int64) (Extent, bool) {
	for i := range r.free {
		e := r.free[i]
		if e.Pages >= n {
			out := Extent{Start: e.Start, Pages: n}
			if e.Pages == n {
				r.free = append(r.free[:i], r.free[i+1:]...)
			} else {
				r.free[i] = Extent{Start: e.Start + n, Pages: e.Pages - n}
			}
			return out, true
		}
	}
	return Extent{}, false
}

func (r *refSet) release(e Extent) {
	i := sort.Search(len(r.free), func(i int) bool {
		return r.free[i].Start >= e.Start
	})
	r.free = append(r.free, Extent{})
	copy(r.free[i+1:], r.free[i:])
	r.free[i] = e
	if i+1 < len(r.free) && r.free[i].Start+r.free[i].Pages == r.free[i+1].Start {
		r.free[i].Pages += r.free[i+1].Pages
		r.free = append(r.free[:i+1], r.free[i+2:]...)
	}
	if i > 0 && r.free[i-1].Start+r.free[i-1].Pages == r.free[i].Start {
		r.free[i-1].Pages += r.free[i].Pages
		r.free = append(r.free[:i], r.free[i+1:]...)
	}
}

func (r *refSet) Total() int64 {
	var n int64
	for _, e := range r.free {
		n += e.Pages
	}
	return n
}

func (r *refSet) firstFreeAt(p int64) int {
	return sort.Search(len(r.free), func(i int) bool {
		return r.free[i].Start+r.free[i].Pages > p
	})
}

func (r *refSet) FirstEndingAfter(p int64) (Extent, bool) {
	i := r.firstFreeAt(p)
	if i == len(r.free) {
		return Extent{}, false
	}
	return r.free[i], true
}

func (r *refSet) Carve(start, take int64) {
	i := r.firstFreeAt(start)
	e := r.free[i]
	leftN := start - e.Start
	rightN := (e.Start + e.Pages) - (start + take)
	switch {
	case leftN == 0 && rightN == 0:
		r.free = append(r.free[:i], r.free[i+1:]...)
	case leftN == 0:
		r.free[i] = Extent{Start: start + take, Pages: rightN}
	case rightN == 0:
		r.free[i] = Extent{Start: e.Start, Pages: leftN}
	default:
		r.free[i] = Extent{Start: e.Start, Pages: leftN}
		rest := Extent{Start: start + take, Pages: rightN}
		r.free = append(r.free, Extent{})
		copy(r.free[i+2:], r.free[i+1:])
		r.free[i+1] = rest
	}
}

// rotSet is what the rotating policy asks of a free set.
type rotSet interface {
	FirstEndingAfter(p int64) (Extent, bool)
	Carve(start, take int64)
	Total() int64
}

// rotate is extfs's rotating first fit over any free set: n pages taken
// piece by piece forward from *cursor, which wraps from limit to base.
// It returns nil, touching nothing, when the set holds fewer than n.
func rotate(s rotSet, cursor *int64, base, limit, n int64) []Extent {
	if n > s.Total() {
		return nil
	}
	var out []Extent
	wrapped := false
	for n > 0 {
		e, ok := s.FirstEndingAfter(*cursor)
		if !ok {
			if wrapped {
				panic("rotate: set inconsistent with its total")
			}
			*cursor = base
			wrapped = true
			continue
		}
		start := e.Start
		if start < *cursor {
			start = *cursor
		}
		take := e.End() - start
		if take > n {
			take = n
		}
		out = append(out, Extent{Start: start, Pages: take})
		s.Carve(start, take)
		n -= take
		*cursor = start + take
		if *cursor >= limit {
			*cursor = base
			wrapped = true
		}
	}
	return out
}

// takeFirstFit is extalloc's lowest-offset first fit on the treap.
func takeFirstFit(s *Set, n int64) (Extent, bool) {
	e, ok := s.FirstFit(n)
	if !ok {
		return Extent{}, false
	}
	s.Carve(e.Start, n)
	return Extent{Start: e.Start, Pages: n}, true
}

// TestTreapMatchesReference drives the treap with extalloc's first-fit
// policy and the old sorted-slice implementation through a long random
// alloc/release workload and demands identical extents, identical free
// sets and intact treap invariants at every step.
func TestTreapMatchesReference(t *testing.T) {
	s := &Set{}
	const region = 3000
	s.Release(Extent{Start: 0, Pages: region})
	ref := &refSet{}
	ref.release(Extent{Start: 0, Pages: region})

	var held []Extent
	rng := sim.NewRNG(42)
	for step := 0; step < 5000; step++ {
		if rng.Uint64n(100) < 55 || len(held) == 0 {
			n := int64(rng.Uint64n(40) + 1)
			want, ok := ref.alloc(n)
			if !ok {
				continue // reference full; keep the sets in lockstep
			}
			got, ok := takeFirstFit(s, n)
			if !ok {
				t.Fatalf("step %d: treap alloc failed where reference succeeded", step)
			}
			if got != want {
				t.Fatalf("step %d: alloc(%d) = %+v, reference %+v", step, n, got, want)
			}
			held = append(held, got)
		} else {
			i := int(rng.Uint64n(uint64(len(held))))
			e := held[i]
			held = append(held[:i], held[i+1:]...)
			// Split some releases in two to exercise partial merges.
			if e.Pages > 2 && rng.Uint64n(2) == 0 {
				cut := int64(rng.Uint64n(uint64(e.Pages-1)) + 1)
				s.Release(Extent{Start: e.Start + cut, Pages: e.Pages - cut})
				ref.release(Extent{Start: e.Start + cut, Pages: e.Pages - cut})
				e.Pages = cut
			}
			s.Release(e)
			ref.release(e)
		}
		sameSet(t, step, s, ref)
	}
}

// extents lists the set in order through its public query.
func extents(t *testing.T, s *Set) []Extent {
	t.Helper()
	var out []Extent
	for e, ok := s.FirstEndingAfter(0); ok; e, ok = s.FirstEndingAfter(e.End()) {
		if len(out) > 0 && e.Start < out[len(out)-1].End() {
			t.Fatalf("FirstEndingAfter(%d) = %+v, which starts before that page", out[len(out)-1].End(), e)
		}
		out = append(out, e)
	}
	return out
}

// sameSet requires s to hold exactly ref's extents and total, with the
// treap's invariants intact.
func sameSet(t *testing.T, step int, s *Set, ref *refSet) {
	t.Helper()
	got := extents(t, s)
	if len(got) != len(ref.free) {
		t.Fatalf("step %d: free set sizes differ: %d vs %d", step, len(got), len(ref.free))
	}
	for i := range got {
		if got[i] != ref.free[i] {
			t.Fatalf("step %d: free[%d] = %+v, reference %+v", step, i, got[i], ref.free[i])
		}
	}
	if s.Total() != ref.Total() {
		t.Fatalf("step %d: Total %d, reference %d", step, s.Total(), ref.Total())
	}
	checkTreap(t, s.root)
	checkSet(t, s)
}

// checkTreap verifies heap order on priorities and the max augmentation.
func checkTreap(t *testing.T, nd *node) int64 {
	t.Helper()
	if nd == nil {
		return 0
	}
	mx := nd.ext.Pages
	if nd.left != nil {
		if nd.left.prio > nd.prio {
			t.Fatal("treap heap order violated (left)")
		}
		if lm := checkTreap(t, nd.left); lm > mx {
			mx = lm
		}
	}
	if nd.right != nil {
		if nd.right.prio > nd.prio {
			t.Fatal("treap heap order violated (right)")
		}
		if rm := checkTreap(t, nd.right); rm > mx {
			mx = rm
		}
	}
	if nd.max != mx {
		t.Fatalf("max augmentation stale: node %+v has max %d, want %d", nd.ext, nd.max, mx)
	}
	return mx
}

// checkSet verifies the set's own contract: non-empty extents, sorted by
// start, neither overlapping nor touching, summing to Total.
func checkSet(t *testing.T, s *Set) {
	t.Helper()
	var sum int64
	exts := extents(t, s)
	for i, e := range exts {
		if e.Pages <= 0 {
			t.Fatalf("free[%d] = %+v is empty", i, e)
		}
		if i > 0 && exts[i-1].End() >= e.Start {
			t.Fatalf("free[%d] = %+v overlaps or touches free[%d] = %+v", i-1, exts[i-1], i, e)
		}
		sum += e.Pages
	}
	if sum != s.Total() {
		t.Fatalf("extents sum to %d pages, Total says %d", sum, s.Total())
	}
}

// FuzzFreeSet drives the treap and the sorted-slice reference in
// lockstep under both allocation policies. Each op is two bytes: a kind
// and an argument. Kinds: lowest-offset first fit, rotating first fit
// (multi-piece, wrapping), release of a held extent, and release of half
// of one (merging on at most one side while the other half stays held).
// Both sets must give identical answers and contents after every op.
func FuzzFreeSet(f *testing.F) {
	f.Add([]byte{0, 5, 1, 200, 2, 0, 1, 90, 3, 1, 0, 3})
	f.Add([]byte{1, 255, 1, 255, 1, 255, 2, 1, 1, 40, 3, 0, 1, 255, 1, 255})
	long := make([]byte, 512)
	rng := sim.NewRNG(7)
	for i := range long {
		long[i] = byte(rng.Uint64())
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		const base, limit = 16, 16 + 1024
		s := &Set{}
		s.Release(Extent{Start: base, Pages: limit - base})
		ref := &refSet{}
		ref.release(Extent{Start: base, Pages: limit - base})
		cursor, refCursor := int64(base), int64(base)
		var held []Extent
		for step := 0; step+1 < len(ops); step += 2 {
			kind, arg := ops[step]%4, int64(ops[step+1])
			switch {
			case kind == 0:
				n := arg%32 + 1
				got, ok := takeFirstFit(s, n)
				want, refOK := ref.alloc(n)
				if got != want || ok != refOK {
					t.Fatalf("step %d: first fit %d = %+v %v, reference %+v %v", step, n, got, ok, want, refOK)
				}
				if ok {
					held = append(held, got)
				}
			case kind == 1:
				n := arg + 1
				got := rotate(s, &cursor, base, limit, n)
				want := rotate(ref, &refCursor, base, limit, n)
				if len(got) != len(want) || cursor != refCursor {
					t.Fatalf("step %d: rotate %d = %v cursor %d, reference %v cursor %d", step, n, got, cursor, want, refCursor)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("step %d: rotate %d piece %d = %+v, reference %+v", step, n, i, got[i], want[i])
					}
				}
				held = append(held, got...)
			case len(held) > 0:
				i := int(arg) % len(held)
				e := held[i]
				if kind == 3 && e.Pages > 1 {
					// Release the back half; the front half stays held.
					half := Extent{Start: e.Start + e.Pages/2, Pages: e.Pages - e.Pages/2}
					held[i].Pages = e.Pages / 2
					e = half
				} else {
					held = append(held[:i], held[i+1:]...)
				}
				s.Release(e)
				ref.release(e)
			}
			sameSet(t, step, s, ref)
		}
	})
}
