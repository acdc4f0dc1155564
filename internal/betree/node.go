package betree

import (
	"ptsbench/internal/cowtree"
	"ptsbench/internal/extalloc"
	"ptsbench/internal/kv"
)

// fileExtent aliases the shared extent type; see internal/extalloc.
type fileExtent = extalloc.Extent

// nodeID identifies an in-memory node. IDs are never reused. It aliases
// the shared core's node id so nodes plug into internal/cowtree without
// conversions.
type nodeID = cowtree.NodeID

const nilNode = cowtree.NilNode

// pageHeaderBytes is the serialized node header size.
const pageHeaderBytes = 64

// childRefBytes is the serialized size of one child reference in an
// interior node: extent start (8) + extent pages (4).
const childRefBytes = 12

// mem bundles the tree's allocation helpers handed to node methods: the
// entry storage (arena for retained key/value copies, pool for the entry
// arrays — leaf entries and interior buffers — displaced by growth and
// splits), and scratch, which holds a flush batch's fresh inserts
// between insertBatch's classify and merge passes.
type mem struct {
	cowtree.Mem
	scratch []cowtree.Entry
}

// node is an in-memory Bε-tree node. Leaves carry entries; interior
// nodes carry separator keys, children and a message buffer sorted by
// key (one message per key — a newer update overwrites the buffered
// older one, which is the classic upsert collapse). Buffered messages
// and leaf entries are both cowtree.Entry: a flush moves messages
// unchanged until they land in a leaf.
type node struct {
	id     nodeID
	parent nodeID
	leaf   bool

	// Leaf payload, sorted by key.
	entries []cowtree.Entry

	// Interior payload: children[i] holds keys < seps[i] for
	// i < len(seps); children[len(seps)] holds the rest.
	seps     [][]byte
	children []nodeID

	// sepCache holds the separators' word decomposition so descents
	// probe raw uint64 pairs (see kv.SepCache); maintained by
	// refreshSepCache/insertSepCache after any seps mutation.
	sepCache kv.SepCache

	// buf is the interior message buffer, sorted by key. bufBytes is its
	// serialized footprint.
	buf      []cowtree.Entry
	bufBytes int

	// childExtents is only populated on nodes reconstructed from disk
	// (recovery): the on-disk locations of the children, in child order.
	childExtents []fileExtent

	// serialized is the full serialized size (pivot section + buffer for
	// interiors; header + entries for leaves). pivotBytes tracks the
	// pivot section alone — the quantity the fanout budget bounds.
	serialized int
	pivotBytes int

	dirty bool

	// On-disk location (pages within the collection file); pages==0
	// means never written.
	disk fileExtent

	// Cache bookkeeping (leaves only): resident leaves form an LRU list.
	resident   bool
	lruNewer   nodeID
	lruOlder   nodeID
	everOnDisk bool

	// next chains leaves left-to-right for range scans.
	next nodeID
}

// refreshSepCache rebuilds the separator word cache. Callers invoke it
// after every seps mutation.
func (n *node) refreshSepCache() { n.sepCache.Refresh(n.seps) }

// childFor returns the index of the child covering target.
func (n *node) childFor(target []byte) int {
	wHi, wLo, fast := kv.DecomposeKey(target)
	if fast && n.sepCache.Fast() {
		return n.sepCache.UpperBound(wHi, wLo)
	}
	lo, hi := 0, len(n.seps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var c int
		if sk := n.seps[mid]; fast && len(sk) == kv.KeySize {
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
	return lo
}

// childIndex returns the position of child id.
func (n *node) childIndex(id nodeID) int {
	for i, c := range n.children {
		if c == id {
			return i
		}
	}
	return -1
}

// bufGet returns the buffered message for key, or nil.
func (n *node) bufGet(mm *mem, key []byte) *cowtree.Entry {
	if i, found := cowtree.Find(&mm.Arena, n.buf, key); found {
		return &n.buf[i]
	}
	return nil
}

// bufInsert upserts a message into the buffer, returning the serialized
// size delta. An existing message for the same key is overwritten when
// the incoming one is at least as new (flush batches always move the
// newest surviving version, so the guard only matters on recovery
// replay).
func (n *node) bufInsert(mm *mem, m cowtree.Entry) int {
	var delta int
	n.buf, delta = mm.Upsert(n.buf, m)
	n.bufBytes += delta
	n.serialized += delta
	return delta
}

// insertLeaf inserts or replaces a leaf entry, returning the serialized
// size delta. Stale messages (older seq than the stored entry) are
// dropped — they can only reach a leaf through recovery replay.
func (n *node) insertLeaf(mm *mem, m cowtree.Entry) int {
	var delta int
	n.entries, delta = mm.Upsert(n.entries, m)
	n.serialized += delta
	return delta
}

// insertBatch applies a sorted run of buffered messages (distinct keys —
// the buffer upsert-collapses duplicates) to a leaf in two passes: one
// classify pass that applies overwrites in place and collects fresh
// inserts, then one merge pass that splices all inserts in a single
// sweep. It replaces the per-message insertLeaf loop of a buffer flush,
// whose repeated binary search + entry shift made flush cascades the
// Bε-tree cell's hottest CPU path. The returned serialized delta equals
// the sum insertLeaf would have returned message by message.
func (n *node) insertBatch(mm *mem, batch []cowtree.Entry) int {
	a := &mm.Arena
	delta := 0
	toIns := mm.scratch[:0]
	ei, _ := cowtree.Find(a, n.entries, mm.Key(&batch[0]))
	for bi := range batch {
		m := &batch[bi]
		c := 1
		for ei < len(n.entries) {
			if c = cowtree.Compare(a, &n.entries[ei], m); c >= 0 {
				break
			}
			ei++
		}
		if c == 0 {
			e := &n.entries[ei]
			if m.Seq() < e.Seq() {
				continue // stale (recovery replay only)
			}
			delta += m.Bytes() - e.Bytes()
			*e = *m
			continue
		}
		toIns = append(toIns, *m)
		delta += m.Bytes()
	}
	mm.scratch = toIns[:0]
	n.serialized += delta
	if len(toIns) == 0 {
		return delta
	}
	oldLen := len(n.entries)
	if cap(n.entries) >= oldLen+len(toIns) {
		// Backward in-place merge: walk both runs from the end so no
		// surviving entry is overwritten before it moves.
		n.entries = n.entries[:oldLen+len(toIns)]
		si, bi := oldLen-1, len(toIns)-1
		for dst := len(n.entries) - 1; bi >= 0; dst-- {
			if si >= 0 && cowtree.Compare(a, &n.entries[si], &toIns[bi]) > 0 {
				n.entries[dst] = n.entries[si]
				si--
			} else {
				n.entries[dst] = toIns[bi]
				bi--
			}
		}
		return delta
	}
	grown := mm.Entries.Get(oldLen + len(toIns))
	si, bi := 0, 0
	for dst := 0; dst < len(grown); dst++ {
		switch {
		case si >= oldLen:
			grown[dst] = toIns[bi]
			bi++
		case bi >= len(toIns) || cowtree.Compare(a, &n.entries[si], &toIns[bi]) < 0:
			grown[dst] = n.entries[si]
			si++
		default:
			grown[dst] = toIns[bi]
			bi++
		}
	}
	mm.Entries.Put(n.entries)
	n.entries = grown
	return delta
}

// splitLeaf moves the upper half of the entries into right (a fresh
// slab-allocated node) and returns it with the separator key (first key
// of the new node, in mm's key scratch: insertIntoParent copies it). The
// moved half draws pooled storage.
func (n *node) splitLeaf(mm *mem, right *node, newID nodeID) (*node, []byte) {
	mid := len(n.entries) / 2
	right.id = newID
	right.parent = n.parent
	right.leaf = true
	right.entries = mm.Entries.CloneTail(n.entries, mid)
	var movedBytes int
	for i := mid; i < len(n.entries); i++ {
		movedBytes += n.entries[i].Bytes()
	}
	right.serialized = pageHeaderBytes + movedBytes
	n.entries = n.entries[:mid]
	n.serialized -= movedBytes
	right.next = n.next
	n.next = right.id
	return right, mm.Key(&right.entries[0])
}

// insertChild adds a separator and child after position idx. The
// separator copy comes from the tree's arena.
func (n *node) insertChild(mm *mem, idx int, sep []byte, child nodeID) {
	n.seps = append(n.seps, nil)
	copy(n.seps[idx+1:], n.seps[idx:])
	n.seps[idx] = mm.Arena.Clone(sep)
	n.children = append(n.children, nilNode)
	copy(n.children[idx+2:], n.children[idx+1:])
	n.children[idx+1] = child
	delta := 2 + len(sep) + childRefBytes
	n.pivotBytes += delta
	n.serialized += delta
	n.insertSepCache(idx, n.seps[idx])
}

// insertSepCache splices one separator's decomposed words into the word
// cache.
func (n *node) insertSepCache(idx int, sep []byte) { n.sepCache.Insert(idx, sep) }

// splitInterior moves the upper half of an interior node (pivots AND the
// buffered messages routed to them) into right (a fresh slab-allocated
// node), returning it and the separator promoted to the parent.
func (n *node) splitInterior(mm *mem, right *node, newID nodeID) (*node, []byte) {
	mid := len(n.seps) / 2
	promoted := n.seps[mid]
	right.id = newID
	right.parent = n.parent
	right.leaf = false
	right.seps = append([][]byte(nil), n.seps[mid+1:]...)
	right.children = append([]nodeID(nil), n.children[mid+1:]...)
	// Messages with key >= promoted route to the right node (childFor
	// sends key == sep to the right child).
	cut, _ := cowtree.Find(&mm.Arena, n.buf, promoted)
	right.buf = mm.Entries.CloneTail(n.buf, cut)
	for i := range right.buf {
		right.bufBytes += right.buf[i].Bytes()
	}
	n.buf = n.buf[:cut]
	n.bufBytes -= right.bufBytes

	n.seps = n.seps[:mid]
	n.children = n.children[:mid+1]
	n.recomputeSerialized()
	n.refreshSepCache()
	right.recomputeSerialized()
	right.refreshSepCache()
	return right, promoted
}

// recomputeSerialized recalculates an interior node's pivot and total
// footprints from scratch.
func (n *node) recomputeSerialized() {
	s := pageHeaderBytes + childRefBytes*len(n.children)
	for _, sep := range n.seps {
		s += 2 + len(sep)
	}
	n.pivotBytes = s
	n.serialized = s + n.bufBytes
}
