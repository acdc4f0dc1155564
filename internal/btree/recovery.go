package btree

import (
	"fmt"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/extalloc"
	"ptsbench/internal/extfs"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// The recovery skeleton — metadata selection, the top-down tree walk,
// free-list reconstruction, leaf-chain rebuild, sequence-ordered journal
// replay and stale-segment retirement — lives in internal/cowtree. This
// file provides the engine-specific hooks: page materialization (the
// codec) and the journal-record apply path.

// Recover reopens a B+Tree from its on-device state: the newest
// checkpoint metadata locates the root, the tree is parsed top-down, and
// surviving journal records are replayed on top (sequence-guarded, so a
// replay never regresses a newer on-disk value). It requires content
// mode. The returned time includes all recovery I/O.
func Recover(fs *extfs.FS, cfg Config, now sim.Duration) (*Tree, sim.Duration, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, now, err
	}
	if !cfg.Content {
		return nil, now, fmt.Errorf("btree: Recover requires content mode")
	}
	st, now, err := cowtree.ReadMeta(fs, "wtmeta", metaMagic, "btree", now)
	if err != nil {
		return nil, now, err
	}
	if st == nil {
		// The tree died before its first checkpoint committed: the
		// synced journal is the only durable state. Rebuild from an
		// empty root and replay it (see cowtree.RecoverBootstrap).
		return bootstrap(fs, cfg, now)
	}
	f, err := fs.Open("collection.wt")
	if err != nil {
		return nil, now, fmt.Errorf("btree: collection file missing: %w", err)
	}
	t := &Tree{
		cfg:   cfg,
		fs:    fs,
		file:  f,
		bm:    extalloc.New(f, int64(cfg.LeafPageBytes/fs.PageSize())*16),
		pages: make([]*page, 1, 64), // index 0 is nilPage
	}
	t.core.Init(t, fs, f, t.bm, coreConfig(cfg))
	t.core.SetJournalState(st.JournalID, st.Gen)
	// Rebuild the tree from the root (extents seen during the walk are
	// live; everything else inside the file is free space), then replay
	// the surviving journal segments, newest records winning. The
	// sequence counter is recomputed from what is actually on disk
	// (MaterializeNode tracks the max leaf-entry sequence, ApplyRecovered
	// advances it per replayed record) rather than trusted from the
	// metadata, so it can be checked against the checkpoint floor below.
	now, err = t.core.RecoverTree(now, st.Root, t, func(id cowtree.NodeID) {
		t.root = id
		if root := t.pages[id]; root.leaf {
			t.admit(root)
		}
	})
	if err != nil {
		return nil, now, err
	}
	// The metadata's floor promises every update with seq <= st.Seq is in
	// the checkpointed tree image (tombstoned entries included — deletes
	// keep their entry until overwritten). Recovering less means node
	// writes the device acknowledged before the checkpoint barrier never
	// persisted: the device lied about fsync. Refuse loudly rather than
	// silently serving the stale tree.
	if t.seq < st.Seq {
		return nil, now, fmt.Errorf(
			"btree: recovered sequence %d below checkpoint floor %d: device dropped acknowledged writes (fsync lie)",
			t.seq, st.Seq)
	}
	// Fresh journal; make the replayed state durable, then retire stale
	// segments.
	if err := t.core.StartJournal(); err != nil {
		return nil, now, err
	}
	if end, err := t.FlushAll(now); err != nil {
		return nil, now, err
	} else if end > now {
		now = end
	}
	if err := t.core.RetireStaleSegments(); err != nil {
		return nil, now, err
	}
	return t, now, nil
}

// bootstrap recovers with no committed checkpoint: an empty tree plus
// journal replay, closed out by the first real checkpoint so the next
// crash finds valid metadata.
func bootstrap(fs *extfs.FS, cfg Config, now sim.Duration) (*Tree, sim.Duration, error) {
	f, err := fs.Open("collection.wt")
	if err != nil {
		if f, err = fs.Create("collection.wt"); err != nil {
			return nil, now, err
		}
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
	if now, err = t.core.RecoverBootstrap(now, t); err != nil {
		return nil, now, err
	}
	if err := t.core.StartJournal(); err != nil {
		return nil, now, err
	}
	if end, err := t.FlushAll(now); err != nil {
		return nil, now, err
	} else if end > now {
		now = end
	}
	if err := t.core.RetireStaleSegments(); err != nil {
		return nil, now, err
	}
	return t, now, nil
}

// MaterializeNode implements cowtree.RecoveryEngine: parse one on-disk
// image, register the page and return its child extents for the walk.
func (t *Tree) MaterializeNode(data []byte, ext cowtree.Extent, parent cowtree.NodeID) (cowtree.NodeID, []cowtree.Extent, error) {
	p, ok := parsePage(data, &t.mem.Arena)
	if !ok {
		return nilPage, nil, fmt.Errorf("btree: corrupt page at extent %d+%d", ext.Start, ext.Pages)
	}
	t.nextID++
	p.id = t.nextID
	p.parent = parent
	p.disk = ext
	p.everOnDisk = true
	if p.leaf {
		var sz int
		for i := range p.entries {
			sz += p.entries[i].Bytes()
			if s := p.entries[i].Seq(); s > t.seq {
				t.seq = s // recompute the counter from disk state
			}
		}
		p.serialized = pageHeaderBytes + sz
	} else {
		p.recomputeSerialized()
		p.refreshSepCache()
	}
	t.registerPage(p)
	childExts := p.childExtents
	p.childExtents = nil
	return p.id, childExts, nil
}

// LinkChild implements cowtree.RecoveryEngine.
func (t *Tree) LinkChild(parent cowtree.NodeID, i int, child cowtree.NodeID) {
	t.pages[parent].children[i] = child
}

// SetNext implements cowtree.RecoveryEngine (the left-to-right leaf
// chain scans follow).
func (t *Tree) SetNext(id, next cowtree.NodeID) { t.pages[id].next = next }

// ApplyRecovered implements cowtree.RecoveryEngine: replay one journal
// record through the insert path (without journaling, CPU costs or
// eviction), guarded by sequence so stale records never overwrite newer
// on-disk state.
func (t *Tree) ApplyRecovered(now sim.Duration, r *wal.Record) (sim.Duration, error) {
	if r.Seq > t.seq {
		t.seq = r.Seq
	}
	leaf := t.descend(r.Key)
	if i, found := cowtree.Find(&t.mem.Arena, leaf.entries, r.Key); found && leaf.entries[i].Seq() >= r.Seq {
		return now, nil // on-disk state is as new or newer
	}
	vlen := r.ValueLen
	if r.Value != nil {
		vlen = len(r.Value)
	}
	delta := leaf.insertLeaf(&t.mem, r.Key, r.Value, vlen, r.Seq, r.Deleted)
	if leaf.resident {
		t.residentBytes += int64(delta)
	}
	t.markDirty(leaf)
	if leaf.serialized > t.cfg.LeafPageBytes {
		t.splitLeaf(leaf)
	}
	return now, nil
}
