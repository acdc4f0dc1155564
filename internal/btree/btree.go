package btree

import (
	"errors"
	"time"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/extalloc"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("btree: tree is closed")

// metaMagic tags the checkpoint metadata files ("WTMT").
const metaMagic = 0x57544D54

// coreConfig maps the engine configuration onto the shared
// checkpoint/recovery core's knobs. The naming fields reproduce the
// pre-extraction on-device footprint exactly.
func coreConfig(cfg Config) cowtree.Config {
	return cowtree.Config{
		Name:                   "btree",
		MetaPrefix:             "wtmeta",
		MetaMagic:              metaMagic,
		JournalPrefix:          "journal-",
		ChunkPages:             cfg.ChunkPages,
		CheckpointInterval:     cfg.CheckpointInterval,
		CheckpointPendingBytes: cfg.CheckpointPendingBytes,
		Content:                cfg.Content,
		DisableJournal:         cfg.DisableJournal,
	}
}

// Tree is the WiredTiger-style B+Tree engine. The copy-on-write
// checkpoint/recovery discipline lives in the embedded cowtree core;
// the engine implements cowtree.RecoveryEngine over its page type.
type Tree struct {
	cfg Config
	fs  *extfs.FS

	file *extfs.File
	bm   *extalloc.Manager

	core cowtree.Core

	pages  []*page // indexed by pageID; ids are allocated sequentially
	root   pageID
	nextID pageID

	// Cache state: resident leaves in an LRU list (head = MRU).
	lruHead, lruTail pageID
	residentBytes    int64

	// mem bundles the key/value arena and the recycled entry-array
	// pool; slab backs page structs. Page structs and retained keys are
	// immortal in this design (ids are never reused), so bump and pool
	// allocation keep the steady-state op path allocation-free.
	mem  cowtree.Mem
	slab cowtree.Slab[page]

	writeBuf []byte // reused serialization image (content mode)

	seq    uint64
	stats  kv.EngineStats
	io     IOStats
	closed bool
}

// IOStats exposes internal activity counters.
type IOStats struct {
	CacheHits      int64
	CacheMisses    int64
	Evictions      int64
	EvictionWrites int64 // dirty evictions (pages written)
	Checkpoints    int64
	CheckpointPgs  int64 // B+Tree pages written by checkpoints
	LeafSplits     int64
	InternalSplits int64
}

// Open creates a B+Tree on fs with a fresh collection file.
func Open(fs *extfs.FS, cfg Config) (*Tree, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	f, err := fs.Create("collection.wt")
	if err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:   cfg,
		fs:    fs,
		file:  f,
		bm:    extalloc.New(f, int64(cfg.LeafPageBytes/fs.PageSize())*16),
		pages: make([]*page, 1, 64), // index 0 is nilPage
	}
	t.core.Init(t, fs, f, t.bm, coreConfig(cfg))
	rootLeaf := t.newPage(true)
	rootLeaf.parent = nilPage
	t.root = rootLeaf.id
	t.admit(rootLeaf)
	if err := t.core.StartJournal(); err != nil {
		return nil, err
	}
	return t, nil
}

// registerPage adds a freshly allocated page to the id-indexed slice;
// ids are handed out sequentially, so the page's id always equals the
// next free slot.
func (t *Tree) registerPage(p *page) {
	if int(p.id) != len(t.pages) {
		panic("btree: page ids must be registered sequentially")
	}
	t.pages = append(t.pages, p)
}

func (t *Tree) newPage(leaf bool) *page {
	t.nextID++
	p := t.slab.Get()
	p.id = t.nextID
	p.leaf = leaf
	p.serialized = pageHeaderBytes
	t.registerPage(p)
	t.markDirty(p)
	return p
}

func (t *Tree) markDirty(p *page) {
	if p.dirty {
		return // already tracked for the next checkpoint
	}
	p.dirty = true
	t.core.TrackDirty(p.id)
}

func (t *Tree) clearDirty(p *page) {
	if p.dirty {
		p.dirty = false
		t.core.NoteClean()
	}
	// The page's entry in the core's transition log stays behind;
	// checkpoint snapshots filter on the dirty flag, so a stale id is
	// skipped for free.
}

// ---- cowtree.Engine implementation ----

// Root implements cowtree.Engine.
func (t *Tree) Root() cowtree.NodeID { return t.root }

// Parent implements cowtree.Engine.
func (t *Tree) Parent(id cowtree.NodeID) cowtree.NodeID { return t.pages[id].parent }

// Leaf implements cowtree.Engine.
func (t *Tree) Leaf(id cowtree.NodeID) bool { return t.pages[id].leaf }

// Children implements cowtree.Engine.
func (t *Tree) Children(id cowtree.NodeID) []cowtree.NodeID { return t.pages[id].children }

// Dirty implements cowtree.Engine.
func (t *Tree) Dirty(id cowtree.NodeID) bool { return t.pages[id].dirty }

// NeedsWrite implements cowtree.Engine.
func (t *Tree) NeedsWrite(id cowtree.NodeID) bool {
	n := t.pages[id]
	return n.dirty || n.disk.Pages == 0
}

// AppendNeedsWrite implements cowtree.Engine.
func (t *Tree) AppendNeedsWrite(id cowtree.NodeID, dst []cowtree.NodeID) []cowtree.NodeID {
	for _, c := range t.pages[id].children {
		if n := t.pages[c]; n.dirty || n.disk.Pages == 0 {
			dst = append(dst, c)
		}
	}
	return dst
}

// Live implements cowtree.Engine (pages are never deallocated).
func (t *Tree) Live(id cowtree.NodeID) bool { return t.pages[id] != nil }

// DiskExtent implements cowtree.Engine.
func (t *Tree) DiskExtent(id cowtree.NodeID) cowtree.Extent { return t.pages[id].disk }

// SerializedBytes implements cowtree.Engine.
func (t *Tree) SerializedBytes(id cowtree.NodeID) int { return t.pages[id].serialized }

// MarkDirty implements cowtree.Engine.
func (t *Tree) MarkDirty(id cowtree.NodeID) { t.markDirty(t.pages[id]) }

// WriteNode implements cowtree.Engine.
func (t *Tree) WriteNode(now sim.Duration, id cowtree.NodeID) (sim.Duration, error) {
	return t.writePage(now, t.pages[id])
}

// Seq implements cowtree.Engine.
func (t *Tree) Seq() uint64 { return t.seq }

// Config returns the validated configuration.
func (t *Tree) Config() Config { return t.cfg }

// Stats implements kv.Engine.
func (t *Tree) Stats() kv.EngineStats { return t.stats }

// IO returns internal activity counters.
func (t *Tree) IO() IOStats {
	io := t.io
	cio := t.core.IO()
	io.Checkpoints = cio.Checkpoints
	io.CheckpointPgs = cio.CheckpointPgs
	return io
}

// DiskUsageBytes implements kv.Engine.
func (t *Tree) DiskUsageBytes() int64 { return t.fs.UsedBytes() }

// Err returns the sticky fatal error, if any.
func (t *Tree) Err() error { return t.core.Err() }

// ---- cache (LRU over resident leaves) ----

func (t *Tree) admit(p *page) {
	if p.resident {
		t.touch(p)
		return
	}
	p.resident = true
	p.lruOlder = t.lruHead
	p.lruNewer = nilPage
	if t.lruHead != nilPage {
		t.pages[t.lruHead].lruNewer = p.id
	}
	t.lruHead = p.id
	if t.lruTail == nilPage {
		t.lruTail = p.id
	}
	t.residentBytes += int64(p.serialized)
}

func (t *Tree) touch(p *page) {
	if t.lruHead == p.id {
		return
	}
	// Unlink.
	if p.lruNewer != nilPage {
		t.pages[p.lruNewer].lruOlder = p.lruOlder
	}
	if p.lruOlder != nilPage {
		t.pages[p.lruOlder].lruNewer = p.lruNewer
	}
	if t.lruTail == p.id {
		t.lruTail = p.lruNewer
	}
	// Push at head.
	p.lruOlder = t.lruHead
	p.lruNewer = nilPage
	if t.lruHead != nilPage {
		t.pages[t.lruHead].lruNewer = p.id
	}
	t.lruHead = p.id
}

func (t *Tree) unlink(p *page) {
	if !p.resident {
		return
	}
	if p.lruNewer != nilPage {
		t.pages[p.lruNewer].lruOlder = p.lruOlder
	}
	if p.lruOlder != nilPage {
		t.pages[p.lruOlder].lruNewer = p.lruNewer
	}
	if t.lruHead == p.id {
		t.lruHead = p.lruOlder
	}
	if t.lruTail == p.id {
		t.lruTail = p.lruNewer
	}
	p.resident = false
	p.lruNewer, p.lruOlder = nilPage, nilPage
	t.residentBytes -= int64(p.serialized)
}

// evictToFit writes back and drops LRU leaves until the cache fits,
// charging the eviction I/O to the foreground — WiredTiger's application
// threads do exactly this under cache pressure.
func (t *Tree) evictToFit(now sim.Duration) (sim.Duration, error) {
	for t.residentBytes > t.cfg.CacheBytes {
		victimID := t.lruTail
		if victimID == nilPage {
			break
		}
		victim := t.pages[victimID]
		if victim.id == t.root {
			// Never evict the root; with a tiny cache and a root leaf
			// this can only happen before the first split.
			break
		}
		t.unlink(victim)
		if victim.dirty {
			var err error
			now, err = t.writePage(now, victim)
			if err != nil {
				t.core.Fail(err)
				return now, err
			}
			t.io.EvictionWrites++
		}
		t.io.Evictions++
	}
	return now, nil
}

// writePage reconciles a page to a fresh extent (copy-on-write). The old
// location is released lazily — it becomes reusable only after the next
// checkpoint commits — so the images a completed checkpoint references
// survive until a newer checkpoint replaces them (WiredTiger's
// checkpoint avail-list discipline, required for crash recovery).
func (t *Tree) writePage(now sim.Duration, p *page) (sim.Duration, error) {
	ps := t.fs.PageSize()
	n := int64((p.serialized + ps - 1) / ps)
	if p.disk.Pages > 0 {
		t.bm.ReleaseDeferred(p.disk)
	}
	ext, err := t.bm.Alloc(n)
	if err != nil {
		return now, err
	}
	var data []byte
	if t.cfg.Content {
		data = t.serializeImage(p, int(n)*ps)
	}
	done, err := t.file.WriteAt(now, ext.Start, int(n), data)
	if err != nil {
		return now, err
	}
	p.disk = ext
	p.everOnDisk = true
	t.clearDirty(p)
	// Reconciling a child moves it on disk; the parent's reference
	// changes, which dirties the parent (it will be written at the next
	// checkpoint).
	if p.parent != nilPage {
		t.markDirty(t.pages[p.parent])
	}
	return done, nil
}

// serializeImage produces the zero-padded on-disk image of a page in the
// tree's reused write buffer (the block device copies written bytes, so
// aliasing the scratch across writes is safe).
func (t *Tree) serializeImage(p *page, size int) []byte {
	buf := serializePage(t.writeBuf[:0], &t.mem.Arena, p, func(id pageID) fileExtent {
		return t.pages[id].disk
	})
	if cap(buf) < size {
		grown := make([]byte, size)
		copy(grown, buf)
		buf = grown
	} else {
		n := len(buf)
		buf = buf[:size]
		clear(buf[n:])
	}
	t.writeBuf = buf
	return buf
}

// loadLeaf charges the read I/O for a non-resident leaf and admits it.
func (t *Tree) loadLeaf(now sim.Duration, p *page) (sim.Duration, error) {
	if p.resident {
		t.io.CacheHits++
		t.touch(p)
		return now, nil
	}
	t.io.CacheMisses++
	if p.everOnDisk {
		var err error
		now, err = t.file.ReadAt(now, p.disk.Start, int(p.disk.Pages), nil)
		if err != nil {
			return now, err
		}
	}
	t.admit(p)
	return now, nil
}

// loadLeafPrefetching loads leaf like loadLeaf and, when the configured
// PrefetchDepth allows, issues reads for up to PrefetchDepth-1 following
// sibling leaves at the same virtual time — batched read submission that
// overlaps on the device's internal lanes. The charged I/O is the same
// as loading each sibling on demand (every prefetched leaf counts one
// cache miss and one read); only the completion times overlap. Scans use
// it because they know they will cross into the siblings next.
func (t *Tree) loadLeafPrefetching(now sim.Duration, leaf *page) (sim.Duration, error) {
	if leaf.resident || t.cfg.PrefetchDepth <= 1 {
		return t.loadLeaf(now, leaf)
	}
	done := now
	p := leaf
	// The window covers the next PrefetchDepth leaves of the chain —
	// resident ones count toward it (they need no read), so the walk
	// never ranges past the leaves the scan is about to visit.
	for seen := 0; p != nil && seen < t.cfg.PrefetchDepth; seen++ {
		if !p.resident {
			t.io.CacheMisses++
			if p.everOnDisk {
				end, err := t.file.ReadAt(now, p.disk.Start, int(p.disk.Pages), nil)
				if err != nil {
					return now, err
				}
				if end > done {
					done = end
				}
			}
			t.admit(p)
		}
		if p.next == nilPage {
			break
		}
		p = t.pages[p.next]
	}
	// Admission order put the last prefetched sibling at the LRU head;
	// re-touch the leaf the scan is about to consume.
	t.touch(leaf)
	return done, nil
}

// descend walks from the root to the leaf covering key. Internal pages
// are treated as pinned (always cached): real WiredTiger strongly favours
// keeping them resident, and at the paper's scale their footprint is
// negligible next to the leaves.
func (t *Tree) descend(key []byte) *page {
	p := t.pages[t.root]
	for !p.leaf {
		p = t.pages[p.childFor(key)]
	}
	return p
}

// Put implements kv.Engine.
func (t *Tree) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	return t.write(now, key, value, valueLen, false)
}

// Delete writes a tombstone (the entry is reclaimed when its leaf is
// rewritten with the tombstone aged out; for simplicity tombstones are
// kept until overwritten).
func (t *Tree) Delete(now sim.Duration, key []byte) (sim.Duration, error) {
	return t.write(now, key, nil, 0, true)
}

func (t *Tree) write(now sim.Duration, key, value []byte, valueLen int, del bool) (sim.Duration, error) {
	if t.closed {
		return now, ErrClosed
	}
	if err := t.core.Err(); err != nil {
		return now, err
	}
	if value != nil {
		valueLen = len(value)
	}
	t.core.Pump(now)
	now += t.cfg.CPUPutTime + time.Duration(valueLen)*t.cfg.CPUPerByte
	t.seq++

	leaf := t.descend(key)
	var err error
	now, err = t.loadLeaf(now, leaf)
	if err != nil {
		t.core.Fail(err)
		return now, err
	}
	delta := leaf.insertLeaf(&t.mem, key, value, valueLen, t.seq, del)
	t.residentBytes += int64(delta)
	t.markDirty(leaf)

	if w := t.core.Journal(); w != nil {
		rec := wal.Record{Seq: t.seq, Key: key, Value: value, Deleted: del, ValueLen: valueLen}
		now, err = w.Append(now, &rec, t.cfg.JournalSync && !t.core.GroupActive())
		if err != nil {
			t.core.Fail(err)
			return now, err
		}
	}
	t.stats.Puts++
	t.stats.UserBytesWritten += int64(len(key) + valueLen)

	if leaf.serialized > t.cfg.LeafPageBytes {
		t.splitLeaf(leaf)
	}
	now, err = t.evictToFit(now)
	if err != nil {
		return now, err
	}
	t.core.MaybeCheckpoint(now)
	return now, nil
}

// BeginGroupCommit implements engine.GroupCommitter: journal syncs are
// deferred until EndGroupCommit so a multi-client write batch commits
// with a single sync.
func (t *Tree) BeginGroupCommit() { t.core.BeginGroup() }

// EndGroupCommit closes the group and syncs the journal tail once.
func (t *Tree) EndGroupCommit(now sim.Duration) (sim.Duration, error) {
	now, err := t.core.EndGroup(now, t.cfg.JournalSync)
	if err != nil {
		t.core.Fail(err)
	}
	return now, err
}

// Get implements kv.Engine.
func (t *Tree) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	if t.closed {
		return now, nil, false, ErrClosed
	}
	if err := t.core.Err(); err != nil {
		return now, nil, false, err
	}
	t.core.Pump(now)
	now += t.cfg.CPUGetTime
	t.stats.Gets++

	leaf := t.descend(key)
	var err error
	now, err = t.loadLeaf(now, leaf)
	if err != nil {
		t.core.Fail(err)
		return now, nil, false, err
	}
	now, err = t.evictToFit(now)
	if err != nil {
		return now, nil, false, err
	}
	i, found := cowtree.Find(&t.mem.Arena, leaf.entries, key)
	if !found || leaf.entries[i].Deleted() {
		return now, nil, false, nil
	}
	e := &leaf.entries[i]
	t.stats.UserBytesRead += int64(len(key)) + int64(e.ValueLen())
	return now, e.Value(&t.mem.Arena), true, nil
}

// Scan returns up to limit live entries with key >= start, in key order,
// loading (and charging reads for) each leaf it crosses — the range-query
// capability that motivates tree structures over hash indexes in the
// paper's introduction.
func (t *Tree) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	if t.closed {
		return now, nil, ErrClosed
	}
	if err := t.core.Err(); err != nil {
		return now, nil, err
	}
	t.core.Pump(now)
	now += t.cfg.CPUGetTime
	var out []kv.Entry
	leaf := t.descend(start)
	idx, _ := cowtree.Find(&t.mem.Arena, leaf.entries, start)
	for limit > 0 && leaf != nil {
		var err error
		now, err = t.loadLeafPrefetching(now, leaf)
		if err != nil {
			t.core.Fail(err)
			return now, nil, err
		}
		for ; idx < len(leaf.entries) && limit > 0; idx++ {
			le := &leaf.entries[idx]
			if le.Deleted() {
				continue
			}
			e := kv.Entry{
				Key:      append([]byte(nil), t.mem.Key(le)...),
				ValueLen: le.ValueLen(),
				Seq:      le.Seq(),
			}
			if v := le.Value(&t.mem.Arena); v != nil {
				e.Value = append([]byte(nil), v...)
			}
			t.stats.UserBytesRead += int64(len(e.Key) + e.ValueLen)
			out = append(out, e)
			limit--
		}
		if now, err = t.evictToFit(now); err != nil {
			return now, nil, err
		}
		if leaf.next == nilPage {
			break
		}
		leaf = t.pages[leaf.next]
		idx = 0
	}
	return now, out, nil
}

// splitLeaf splits an oversized leaf and propagates internal splits.
func (t *Tree) splitLeaf(leaf *page) {
	t.nextID++
	right, sep := leaf.splitLeaf(&t.mem, t.slab.Get(), t.nextID)
	t.registerPage(right)
	t.markDirty(right)
	t.markDirty(leaf)
	t.io.LeafSplits++
	t.admit(right)
	// admit charged right.serialized, but the moved entries were already
	// counted while they lived in leaf (whose serialized size dropped by
	// the same amount); only the new page header is genuinely new.
	t.residentBytes -= int64(right.serialized - pageHeaderBytes)
	t.insertIntoParent(leaf, sep, right)
}

// insertIntoParent links a new right sibling under the parent, splitting
// internals (and growing a new root) as needed.
func (t *Tree) insertIntoParent(left *page, sep []byte, right *page) {
	if left.id == t.root {
		newRoot := t.newPage(false)
		newRoot.children = []pageID{left.id, right.id}
		newRoot.seps = [][]byte{t.mem.Arena.Clone(sep)}
		newRoot.recomputeSerialized()
		newRoot.refreshSepCache()
		left.parent = newRoot.id
		right.parent = newRoot.id
		t.root = newRoot.id
		return
	}
	parent := t.pages[left.parent]
	idx := parent.childIndex(left.id)
	parent.insertChild(&t.mem, idx, sep, right.id)
	right.parent = parent.id
	t.markDirty(parent)
	if parent.serialized > t.cfg.InternalPageBytes {
		t.splitInternalPage(parent)
	}
}

// splitInternalPage splits an internal page and reparents moved children.
func (t *Tree) splitInternalPage(p *page) {
	t.nextID++
	right, promoted := p.splitInternal(t.slab.Get(), t.nextID)
	t.registerPage(right)
	t.markDirty(right)
	t.markDirty(p)
	t.io.InternalSplits++
	for _, c := range right.children {
		t.pages[c].parent = right.id
	}
	t.insertIntoParent(p, promoted, right)
}

// FlushAll implements kv.Engine: runs a full checkpoint synchronously.
func (t *Tree) FlushAll(now sim.Duration) (sim.Duration, error) {
	if t.closed {
		return now, ErrClosed
	}
	return t.core.Checkpoint(now)
}

// Quiesce drains background checkpoint work.
func (t *Tree) Quiesce(now sim.Duration) sim.Duration {
	return t.core.Quiesce(now)
}

// JournalSyncCount exposes the active journal segment's device-reaching
// sync count (group-commit accounting; see cowtree.Core).
func (t *Tree) JournalSyncCount() int64 { return t.core.JournalSyncCount() }

// Close checkpoints and shuts the tree down.
func (t *Tree) Close(now sim.Duration) (sim.Duration, error) {
	if t.closed {
		return now, ErrClosed
	}
	end, err := t.FlushAll(now)
	t.closed = true
	return end, err
}

// Depth returns the tree height (1 = root leaf only).
func (t *Tree) Depth() int {
	d := 1
	p := t.pages[t.root]
	for !p.leaf {
		d++
		p = t.pages[p.children[0]]
	}
	return d
}

// PageCount returns the numbers of leaf and internal pages.
func (t *Tree) PageCount() (leaves, internals int) {
	for _, p := range t.pages {
		if p == nil {
			continue // index 0 (nilPage) placeholder
		}
		if p.leaf {
			leaves++
		} else {
			internals++
		}
	}
	return leaves, internals
}
