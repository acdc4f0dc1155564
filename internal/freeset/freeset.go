// Package freeset is the free-extent set behind both of the simulator's
// page allocators: extfs's rotating first fit (the filesystem) and
// extalloc's lowest-offset first fit (the collection file of the
// B-tree-family engines). It holds disjoint runs of free pages, merges
// neighbours on release, and answers the two policies' queries in
// O(log n) for n free extents.
//
// The set is a treap keyed by extent start and augmented with the
// largest extent in each subtree. Priorities are minted from a
// deterministic counter hash, so the tree shape — and therefore
// performance, but not any query's answer, which depends only on the key
// order — is reproducible across runs. Removed nodes are recycled
// through a spare list, so a set in steady state allocates nothing.
package freeset

import "fmt"

// Extent is a contiguous run of pages.
type Extent struct {
	Start, Pages int64
}

// End returns one past the extent's last page.
func (e Extent) End() int64 { return e.Start + e.Pages }

type node struct {
	ext         Extent
	prio        uint64
	max         int64 // max Pages within this subtree
	left, right *node
}

// Set is a set of free extents: sorted by start, non-overlapping and
// non-adjacent (Release merges touching extents). The zero value is an
// empty set.
type Set struct {
	root *node
	// spare chains recycled nodes through their left pointers.
	spare    *node
	prioSeed uint64
	total    int64
}

// Total returns the number of free pages in the set.
func (s *Set) Total() int64 { return s.total }

// FirstFit returns the lowest-starting extent with at least n pages.
func (s *Set) FirstFit(n int64) (Extent, bool) {
	nd := s.root
	if nd == nil || nd.max < n {
		return Extent{}, false
	}
	for {
		switch {
		case nd.left != nil && nd.left.max >= n:
			nd = nd.left
		case nd.ext.Pages >= n:
			return nd.ext, true
		default:
			nd = nd.right
		}
	}
}

// FirstEndingAfter returns the lowest-starting extent that ends after
// page p: the extent containing p, or else the first one after it.
func (s *Set) FirstEndingAfter(p int64) (Extent, bool) {
	var best *node
	for nd := s.root; nd != nil; {
		if nd.ext.End() > p {
			best = nd
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	if best == nil {
		return Extent{}, false
	}
	return best.ext, true
}

// Carve removes [start, start+take) from the set. The range must lie
// inside one free extent; carving its middle splits that extent in two.
func (s *Set) Carve(start, take int64) {
	if take <= 0 {
		panic(fmt.Sprintf("freeset: carve of %d pages", take))
	}
	var rest Extent
	s.root = s.carve(s.root, start, take, &rest)
	s.total -= take
	if rest.Pages > 0 {
		s.root = insert(s.root, s.newNode(rest))
	}
}

func (s *Set) carve(nd *node, start, take int64, rest *Extent) *node {
	switch {
	case nd == nil:
		panic(fmt.Sprintf("freeset: carve [%d,+%d) outside the free set", start, take))
	case start < nd.ext.Start:
		nd.left = s.carve(nd.left, start, take, rest)
	case start >= nd.ext.End():
		nd.right = s.carve(nd.right, start, take, rest)
	default:
		e := nd.ext
		end := start + take
		if end > e.End() {
			panic(fmt.Sprintf("freeset: carve [%d,+%d) overruns free extent %+v", start, take, e))
		}
		switch {
		case start == e.Start && end == e.End():
			out := join(nd.left, nd.right)
			s.recycle(nd)
			return out
		case start == e.Start:
			// Moving the start forward keeps the key between its
			// neighbours, so the node stays where it is.
			nd.ext = Extent{Start: end, Pages: e.End() - end}
		default:
			nd.ext.Pages = start - e.Start
			*rest = Extent{Start: end, Pages: e.End() - end}
		}
	}
	upd(nd)
	return nd
}

// Release adds e to the set, merging it with the free extents it
// touches. e must not overlap the set. An empty extent is ignored.
func (s *Set) Release(e Extent) {
	if e.Pages <= 0 {
		return
	}
	s.total += e.Pages
	var pred, succ *node
	for nd := s.root; nd != nil; {
		if nd.ext.Start < e.Start {
			pred = nd
			nd = nd.right
		} else {
			succ = nd
			nd = nd.left
		}
	}
	if pred != nil && pred.ext.End() == e.Start {
		e = Extent{Start: pred.ext.Start, Pages: pred.ext.Pages + e.Pages}
		s.root = s.remove(s.root, pred.ext.Start)
	}
	if succ != nil && e.End() == succ.ext.Start {
		e.Pages += succ.ext.Pages
		s.root = s.remove(s.root, succ.ext.Start)
	}
	s.root = insert(s.root, s.newNode(e))
}

// splitmix64 is the priority mixer (deterministic, well-distributed).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (s *Set) newNode(e Extent) *node {
	nd := s.spare
	if nd != nil {
		s.spare = nd.left
		*nd = node{}
	} else {
		nd = &node{}
	}
	s.prioSeed++
	nd.ext = e
	nd.prio = splitmix64(s.prioSeed)
	nd.max = e.Pages
	return nd
}

func (s *Set) recycle(nd *node) {
	nd.right = nil
	nd.left = s.spare
	s.spare = nd
}

// upd pulls the subtree max up into nd.
func upd(nd *node) {
	mx := nd.ext.Pages
	if nd.left != nil && nd.left.max > mx {
		mx = nd.left.max
	}
	if nd.right != nil && nd.right.max > mx {
		mx = nd.right.max
	}
	nd.max = mx
}

// join merges two treaps where every key in l precedes every key in r.
func join(l, r *node) *node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio >= r.prio:
		l.right = join(l.right, r)
		upd(l)
		return l
	default:
		r.left = join(l, r.left)
		upd(r)
		return r
	}
}

// insert adds nd (a detached single node) into the subtree.
func insert(root, nd *node) *node {
	if root == nil {
		return nd
	}
	if nd.prio > root.prio {
		nd.left, nd.right = split(root, nd.ext.Start)
		upd(nd)
		return nd
	}
	if nd.ext.Start < root.ext.Start {
		root.left = insert(root.left, nd)
	} else {
		root.right = insert(root.right, nd)
	}
	upd(root)
	return root
}

// split partitions a treap into keys < at and keys >= at.
func split(nd *node, at int64) (l, r *node) {
	if nd == nil {
		return nil, nil
	}
	if nd.ext.Start < at {
		nd.right, r = split(nd.right, at)
		upd(nd)
		return nd, r
	}
	l, nd.left = split(nd.left, at)
	upd(nd)
	return l, nd
}

// remove deletes the node keyed at start, recycling it. The key must
// exist.
func (s *Set) remove(nd *node, start int64) *node {
	switch {
	case start < nd.ext.Start:
		nd.left = s.remove(nd.left, start)
	case start > nd.ext.Start:
		nd.right = s.remove(nd.right, start)
	default:
		out := join(nd.left, nd.right)
		s.recycle(nd)
		return out
	}
	upd(nd)
	return nd
}
