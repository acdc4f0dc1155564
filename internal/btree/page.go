package btree

import (
	"ptsbench/internal/cowtree"
	"ptsbench/internal/extalloc"
	"ptsbench/internal/kv"
)

// fileExtent aliases the shared extent type; see internal/extalloc.
type fileExtent = extalloc.Extent

// pageID identifies an in-memory page. IDs are never reused. It aliases
// the shared core's node id so pages plug into internal/cowtree without
// conversions.
type pageID = cowtree.NodeID

const nilPage = cowtree.NilNode

// pageHeaderBytes is the serialized page header size.
const pageHeaderBytes = 64

// page is an in-memory B+Tree page. Leaves carry entries; internal pages
// carry separator keys and children. The serialized footprint is tracked
// incrementally so splits trigger at the configured page size without
// serializing on every update.
type page struct {
	id     pageID
	parent pageID
	leaf   bool

	// Leaf payload, sorted by key (see cowtree.Entry; values are absent
	// in accounting mode, which keeps only the accounted size). A single
	// entry slice (instead of five parallel column slices) keeps an
	// insert to one shift and a split to one allocation.
	entries []cowtree.Entry

	// Internal payload: children[i] holds keys < seps[i] for
	// i < len(seps); children[len(seps)] holds the rest.
	seps     [][]byte
	children []pageID

	// sepCache holds the separators' word decomposition so descents
	// probe raw uint64 pairs (see kv.SepCache); maintained by
	// refreshSepCache/insertSepCache after any seps mutation.
	sepCache kv.SepCache

	// childExtents is only populated on pages reconstructed from disk
	// (recovery): the on-disk locations of the children, in child order.
	childExtents []fileExtent

	serialized int  // current serialized size estimate, bytes
	dirty      bool // needs writing before eviction / at checkpoint

	// On-disk location (pages within the collection file); pages==0
	// means never written.
	disk fileExtent

	// Cache bookkeeping (leaves only): resident pages form an LRU list.
	resident   bool
	lruNewer   pageID
	lruOlder   pageID
	everOnDisk bool

	// next chains leaves left-to-right for range scans.
	next pageID
}

// refreshSepCache rebuilds the separator word cache. Callers invoke it
// after every seps mutation.
func (p *page) refreshSepCache() { p.sepCache.Refresh(p.seps) }

// childFor returns the child page covering target in an internal page.
func (p *page) childFor(target []byte) pageID {
	wHi, wLo, fast := kv.DecomposeKey(target)
	if fast && p.sepCache.Fast() {
		return p.children[p.sepCache.UpperBound(wHi, wLo)]
	}
	lo, hi := 0, len(p.seps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var c int
		if sk := p.seps[mid]; fast && len(sk) == kv.KeySize {
			c = kv.CompareKeyWords(sk, wHi, wLo)
		} else {
			c = kv.CompareKeys(sk, target)
		}
		if c <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p.children[lo]
}

// childIndex returns the position of child id in an internal page.
func (p *page) childIndex(id pageID) int {
	for i, c := range p.children {
		if c == id {
			return i
		}
	}
	return -1
}

// insertLeaf inserts or replaces an entry, returning the serialized size
// delta. When val is non-nil it overrides vlen, keeping the stored bytes
// and the accounted size consistent. Retained key/value copies come from
// the tree's arena and array growth recycles through the entry pool, so
// the steady-state path costs no heap allocation.
func (p *page) insertLeaf(m *cowtree.Mem, key, val []byte, vlen int, seq uint64, del bool) int {
	var delta int
	p.entries, delta = m.Upsert(p.entries, cowtree.NewEntry(&m.Arena, key, val, seq, vlen, del))
	p.serialized += delta
	return delta
}

// splitLeaf moves the upper half of the entries into right (a fresh
// slab-allocated page) and returns it with the separator key (first key
// of the new page, in m's key scratch: insertIntoParent copies it). The
// moved half draws pooled storage whose capacity class (next power of
// two) leaves room to refill toward the page's own split without
// regrowing.
func (p *page) splitLeaf(m *cowtree.Mem, right *page, newID pageID) (*page, []byte) {
	mid := len(p.entries) / 2
	right.id = newID
	right.parent = p.parent
	right.leaf = true
	right.entries = m.Entries.CloneTail(p.entries, mid)
	var movedBytes int
	for i := mid; i < len(p.entries); i++ {
		movedBytes += p.entries[i].Bytes()
	}
	right.serialized = pageHeaderBytes + movedBytes
	p.entries = p.entries[:mid]
	p.serialized -= movedBytes
	// Maintain the leaf chain.
	right.next = p.next
	p.next = right.id
	return right, m.Key(&right.entries[0])
}

// childRefBytes is the serialized size of one child reference in an
// internal page: extent start (8) + extent pages (4), so recovery can
// locate children on disk.
const childRefBytes = 12

// insertChild adds a separator and child after position idx in an
// internal page. The separator copy comes from the tree's arena.
func (p *page) insertChild(m *cowtree.Mem, idx int, sep []byte, child pageID) {
	p.seps = append(p.seps, nil)
	copy(p.seps[idx+1:], p.seps[idx:])
	p.seps[idx] = m.Arena.Clone(sep)
	p.children = append(p.children, nilPage)
	copy(p.children[idx+2:], p.children[idx+1:])
	p.children[idx+1] = child
	p.serialized += 2 + len(sep) + childRefBytes
	p.insertSepCache(idx, p.seps[idx])
}

// insertSepCache splices one separator's decomposed words into the word
// cache.
func (p *page) insertSepCache(idx int, sep []byte) { p.sepCache.Insert(idx, sep) }

// splitInternal moves the upper half of an internal page into right (a
// fresh slab-allocated page), returning it and the separator promoted to
// the parent.
func (p *page) splitInternal(right *page, newID pageID) (*page, []byte) {
	mid := len(p.seps) / 2
	promoted := p.seps[mid]
	right.id = newID
	right.parent = p.parent
	right.leaf = false
	right.seps = append([][]byte(nil), p.seps[mid+1:]...)
	right.children = append([]pageID(nil), p.children[mid+1:]...)
	right.recomputeSerialized()
	right.refreshSepCache()
	p.seps = p.seps[:mid]
	p.children = p.children[:mid+1]
	p.recomputeSerialized()
	p.refreshSepCache()
	return right, promoted
}

// recomputeSerialized recalculates the internal page footprint.
func (p *page) recomputeSerialized() {
	s := pageHeaderBytes + childRefBytes*len(p.children)
	for _, sep := range p.seps {
		s += 2 + len(sep)
	}
	p.serialized = s
}
