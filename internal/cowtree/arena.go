package cowtree

import "math/bits"

// Arena is a chunked byte allocator for the small immortal byte slices
// the tree engines retain — key and value copies taken at the Put
// boundary and separator keys. The engines' node structures never free
// individual keys (ids and nodes are immortal in the simulation's memory
// model), so a bump allocator turns the dominant steady-state allocation
// — one heap object per fresh key — into one chunk allocation per ~4096
// keys. Retained bytes are reachable two ways: as a []byte (Clone, for
// separators) or as a Ref (CloneRef/Lookup, for Entry), an integer
// handle that lets the arrays holding it stay pointer-free. A zero
// Arena is ready to use.
type Arena struct {
	// chunks holds every chunk ever allocated; a Ref names one by its
	// 1-based index. Values larger than arenaChunkBytes get a chunk of
	// their own.
	chunks [][]byte
	// cur is the 1-based index of the bump chunk (0: none yet) and used
	// its allocated prefix.
	cur  int
	used int
}

// arenaChunkBytes is the bump-chunk size. Large enough to amortize the
// chunk allocation to noise, small enough that a mostly-idle tree does
// not strand much memory.
const arenaChunkBytes = 64 << 10

// Ref locates bytes held by an Arena: the chunk's 1-based index in the
// high 32 bits, the offset within it in the low 32. The length is kept
// by the holder (Entry stores it anyway for accounting). The zero Ref is
// nil; chunk 0 with offset 1 is the empty, non-nil slice, so a round
// trip through CloneRef/Lookup keeps nil and empty apart.
type Ref uint64

// nilRef is the Ref of a nil slice; emptyRef is the Ref of an empty one.
const (
	nilRef   Ref = 0
	emptyRef Ref = 1
)

// Clone copies b into the arena, preserving nil.
func (a *Arena) Clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	_, out := a.alloc(len(b))
	copy(out, b)
	return out
}

// CloneRef copies b into the arena and returns its Ref, preserving nil
// and empty.
func (a *Arena) CloneRef(b []byte) Ref {
	if b == nil {
		return nilRef
	}
	if len(b) == 0 {
		return emptyRef
	}
	r, out := a.alloc(len(b))
	copy(out, b)
	return r
}

// Lookup returns the n bytes r names (nil for the nil Ref). The slice's
// capacity is capped at n, so appending to it never clobbers a
// neighbour.
func (a *Arena) Lookup(r Ref, n int) []byte {
	c := int(r >> 32)
	if c == 0 {
		if r == nilRef {
			return nil
		}
		return []byte{}
	}
	off := int(uint32(r))
	return a.chunks[c-1][off : off+n : off+n]
}

// alloc carves n zeroed bytes from the arena. n larger than the chunk
// size gets a chunk of its own; otherwise a full bump chunk is retired
// and a fresh one started.
func (a *Arena) alloc(n int) (Ref, []byte) {
	if n > arenaChunkBytes {
		out := make([]byte, n)
		a.chunks = append(a.chunks, out)
		return Ref(len(a.chunks)) << 32, out
	}
	if a.cur == 0 || a.used+n > arenaChunkBytes {
		a.chunks = append(a.chunks, make([]byte, arenaChunkBytes))
		a.cur, a.used = len(a.chunks), 0
	}
	off := a.used
	a.used += n
	return Ref(a.cur)<<32 | Ref(off), a.chunks[a.cur-1][off : off+n : off+n]
}

// Pool recycles slices of T by power-of-two capacity class. The
// engines' Entry arrays (B+Tree leaves, Bε-tree leaves and buffers)
// churn constantly — every append past capacity retires one array,
// every leaf split demands a fresh one — and that churn was the dominant
// byte source feeding the GC once per-key allocations moved to the
// arena. Retired arrays keep their contents: an Entry holds no pointer
// (only arena Refs), so a stale array pins nothing and the collector
// never scans it. Get never clears, so every caller must fully overwrite
// the returned prefix.
type Pool[T any] struct {
	classes [32][][]T
}

// Get returns a slice of length n whose capacity is the next power of
// two >= n, reusing a retired array of that class when available.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if s := p.classes[c]; len(s) > 0 {
		out := s[len(s)-1]
		s[len(s)-1] = nil
		p.classes[c] = s[:len(s)-1]
		return out[:n]
	}
	return make([]T, n, 1<<c)
}

// Put retires a slice's backing array for reuse. The caller must not
// touch s afterwards. Arrays land in the largest class their capacity
// can fully serve.
func (p *Pool[T]) Put(s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	k := bits.Len(uint(c)) - 1
	p.classes[k] = append(p.classes[k], s[:0])
}

// GrowInsert inserts e at position i of s (0 <= i <= len(s)), growing
// through the pool when capacity is exhausted so the displaced array is
// recycled instead of becoming garbage.
func (p *Pool[T]) GrowInsert(s []T, i int, e T) []T {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
		copy(s[i+1:], s[i:])
		s[i] = e
		return s
	}
	grown := p.Get(len(s) + 1)
	copy(grown, s[:i])
	copy(grown[i+1:], s[i:])
	grown[i] = e
	p.Put(s)
	return grown
}

// CloneTail copies src[from:] into a pooled array (used by splits to
// hand the moved half its own storage).
func (p *Pool[T]) CloneTail(src []T, from int) []T {
	out := p.Get(len(src) - from)
	copy(out, src[from:])
	return out
}

// Slab is a chunked struct allocator: Get hands out pointers into
// block-allocated backing arrays, turning one heap object per node into
// one per slabBlock nodes. Engines use it for their page/node structs,
// which are immortal (ids are never reused, and evicting a leaf only
// drops its residency flag).
type Slab[T any] struct {
	block []T
}

// slabBlock is the number of structs per backing array.
const slabBlock = 256

// Get returns a pointer to a zeroed T.
func (s *Slab[T]) Get() *T {
	if len(s.block) == 0 {
		s.block = make([]T, slabBlock)
	}
	out := &s.block[0]
	s.block = s.block[1:]
	return out
}

// zeroPad backs appendZeros.
var zeroPad [4096]byte

// appendZeros appends n zero bytes to out — the entry codec uses it to
// zero-fill accounting-mode values without allocating per entry.
func appendZeros(out []byte, n int) []byte {
	for n > len(zeroPad) {
		out = append(out, zeroPad[:]...)
		n -= len(zeroPad)
	}
	return append(out, zeroPad[:n]...)
}
