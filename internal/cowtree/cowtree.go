// Package cowtree implements the copy-on-write checkpoint/recovery
// discipline shared by the page/node-based tree engines (B+Tree,
// Bε-tree), the way internal/extalloc was extracted for their extent
// allocator. The engines keep their own node representation, node
// codecs and read/write paths; this package owns everything both had
// duplicated:
//
//   - dirty-set tracking (append-order transition log, filtered on the
//     node flag at snapshot time),
//   - the checkpoint job: dirty-ancestor-closure snapshot, bottom-up
//     write order, writeSubtreeClean for split-orphaned descendants,
//     root-spine write at commit, metadata write, deferred-extent
//     release, journal rotation and recycling,
//   - the double-buffered checkpoint metadata codec,
//   - the journal segment pool,
//   - the recovery skeleton: tree walk from the checkpointed root,
//     free-list reconstruction, leaf-chain rebuild, sequence-sorted
//     journal replay and stale-segment retirement,
//   - the record type of leaves and buffers (Entry, pointer-free and
//     arena-backed) with its one search, compare and codec.
//
// An engine embeds a Core, implements the small Engine interface over
// its node type, and routes its checkpoint/recovery entry points through
// the Core. PR 3 fixed three crash-recovery bugs twice — once per copied
// implementation; the discipline now lives here once, pinned by
// engine-agnostic tests over a stub engine in this package and by both
// engines' recovery regression suites.
package cowtree

import (
	"fmt"
	"time"

	"ptsbench/internal/deverr"
	"ptsbench/internal/extalloc"
	"ptsbench/internal/extfs"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// NodeID identifies an in-memory tree node. IDs are handed out
// sequentially by the engine and never reused; 0 is the nil node.
type NodeID uint32

// NilNode is the zero NodeID.
const NilNode NodeID = 0

// Extent aliases the shared allocator extent type.
type Extent = extalloc.Extent

// Engine is the view the checkpoint/recovery core has of a tree engine.
// All methods are keyed by NodeID; the engine owns the id-indexed node
// storage. None of these sit on the engine's steady-state op path — the
// core calls them while snapshotting or writing a checkpoint and during
// recovery — so the interface indirection costs nothing per Put/Get.
type Engine interface {
	// Root returns the current root node id.
	Root() NodeID
	// Parent returns a node's parent id (NilNode for the root).
	Parent(NodeID) NodeID
	// Leaf reports whether the node is a leaf.
	Leaf(NodeID) bool
	// Children returns an interior node's child ids (nil for leaves).
	// The core only reads the slice.
	Children(NodeID) []NodeID
	// Dirty reports whether the node needs writing.
	Dirty(NodeID) bool
	// NeedsWrite reports Dirty(id) || DiskExtent(id).Pages == 0 in one
	// call (the commit's root check).
	NeedsWrite(NodeID) bool
	// AppendNeedsWrite appends to dst, in child order, the ids of the
	// node's children for which NeedsWrite holds, and returns dst. One
	// batched call replaces a per-child interface call in the
	// checkpoint's subtree walk, which scans every written interior
	// node's full fanout (the walk almost always finds nothing — only
	// children registered by splits that raced the in-flight checkpoint
	// qualify).
	AppendNeedsWrite(id NodeID, dst []NodeID) []NodeID
	// Live reports whether the id still names a node (engines that
	// never deallocate return true for every assigned id).
	Live(NodeID) bool
	// DiskExtent returns the node's current on-disk extent (Pages == 0
	// means never written).
	DiskExtent(NodeID) Extent
	// SerializedBytes returns the node's serialized footprint.
	SerializedBytes(NodeID) int
	// MarkDirty flags the node for the next checkpoint. The engine must
	// call Core.TrackDirty on the false->true transition.
	MarkDirty(NodeID)
	// WriteNode reconciles one node copy-on-write: allocate a fresh
	// extent, serialize, write, clear the dirty flag, dirty the parent.
	WriteNode(now sim.Duration, id NodeID) (sim.Duration, error)
	// Seq returns the KV sequence high-water mark (persisted in the
	// checkpoint metadata).
	Seq() uint64
}

// Config carries the engine-specific constants and tuning the core
// needs. The naming fields keep each engine's on-device footprint
// exactly what it was before the extraction.
type Config struct {
	// Name tags errors and the checkpoint worker ("btree", "betree").
	Name string
	// MetaPrefix names the double-buffered metadata files
	// ("<prefix>-A"/"<prefix>-B").
	MetaPrefix string
	// MetaMagic is the 32-bit magic of the metadata codec.
	MetaMagic uint32
	// JournalPrefix prefixes journal segment file names; segments are
	// "<prefix>NNNNNN".
	JournalPrefix string

	// ChunkPages is the checkpoint I/O granularity per job step.
	ChunkPages int
	// CheckpointInterval triggers a checkpoint when this much virtual
	// time passed since the last one.
	CheckpointInterval time.Duration
	// CheckpointPendingBytes triggers a checkpoint when this many bytes
	// of freed extents await release.
	CheckpointPendingBytes int64
	// Content selects content mode (values materialized and written
	// through).
	Content bool
	// DisableJournal turns journaling off entirely.
	DisableJournal bool
}

// IOStats counts the core's checkpoint activity.
type IOStats struct {
	Checkpoints   int64
	CheckpointPgs int64
}

// Core owns the shared checkpoint/recovery state of one tree. Engines
// embed it by value and call Init once at construction.
type Core struct {
	eng  Engine
	fs   *extfs.FS
	file *extfs.File
	bm   *extalloc.Manager
	cfg  Config

	// dirtyIDs is the append-order log of false->true dirty
	// transitions; dirtyCount tracks how many nodes are currently
	// dirty. Snapshots filter stale entries on the node flag.
	dirtyIDs   []NodeID
	dirtyCount int

	journal     *wal.Writer
	journalID   uint64
	journalPool []*wal.Writer // recycled segments awaiting reuse
	group       bool          // group commit open: per-record syncs deferred

	ckptW    *sim.Worker
	lastCkpt sim.Duration
	metaGen  uint64

	io      IOStats
	fatal   error
	metaBuf []byte // reused page-sized metadata write image (content mode)

	// Checkpoint scratch, reused across checkpoints (a retired job's
	// slices return to the pool at commit; concurrent jobs — possible
	// only through the white-box test path that holds a job while
	// triggering another — each draw their own).
	jobPool []*Job
	inJob   []uint32 // id-indexed epoch stamps replacing a per-job map
	epoch   uint32
	// subtreeScratch holds writeSubtreeClean's per-depth needy-children
	// lists (reused across checkpoints).
	subtreeScratch [][]NodeID

	// recovered segment names, kept between ReplayJournals and
	// RetireStaleSegments.
	segments []string
}

// Init wires the core to its engine and device state. The engine's
// journal is not created here; call StartJournal once the tree shell is
// ready (Open) or after replay (Recover).
func (c *Core) Init(eng Engine, fs *extfs.FS, file *extfs.File, bm *extalloc.Manager, cfg Config) {
	c.eng = eng
	c.fs = fs
	c.file = file
	c.bm = bm
	c.cfg = cfg
	c.ckptW = sim.NewWorker(cfg.Name + "-checkpoint")
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// FS returns the mounted filesystem.
func (c *Core) FS() *extfs.FS { return c.fs }

// BM returns the extent allocator.
func (c *Core) BM() *extalloc.Manager { return c.bm }

// IO returns the core's checkpoint counters.
func (c *Core) IO() IOStats { return c.io }

// Err returns the sticky fatal error, if any.
func (c *Core) Err() error { return c.fatal }

// Fail records a fatal error (the first one wins). The error is
// latched: even when the root cause was a transient device error, the
// core is permanently wedged, so deverr.IsTransient must report false
// for everything returned from here on — otherwise the serving layer
// would retry a dead engine instead of failing the replica over.
func (c *Core) Fail(err error) {
	if c.fatal == nil {
		c.fatal = deverr.Latch(err)
	}
}

// Pump drives the background checkpoint worker up to now.
func (c *Core) Pump(now sim.Duration) { c.ckptW.Pump(now) }

// Worker exposes the checkpoint worker (tests submit jobs directly to
// provoke checkpoint/foreground races deterministically).
func (c *Core) Worker() *sim.Worker { return c.ckptW }

// ---- dirty tracking ----

// TrackDirty records a node's false->true dirty transition. The engine's
// MarkDirty checks the node flag first, so this is called once per
// transition, not once per markDirty call.
func (c *Core) TrackDirty(id NodeID) {
	c.dirtyCount++
	c.dirtyIDs = append(c.dirtyIDs, id)
}

// NoteClean records that a node's dirty flag was cleared. Its entry in
// the transition log stays behind; snapshots filter on the flag, so a
// stale id is skipped for free.
func (c *Core) NoteClean() { c.dirtyCount-- }

// DirtyCount reports the number of currently dirty nodes.
func (c *Core) DirtyCount() int { return c.dirtyCount }

// ---- journal ----

// Journal returns the active journal segment writer, or nil when
// journaling is disabled.
func (c *Core) Journal() *wal.Writer { return c.journal }

// JournalID returns the id of the most recently named segment.
func (c *Core) JournalID() uint64 { return c.journalID }

// JournalSyncCount returns the number of device-reaching syncs issued on
// the active journal segment (see wal.Writer.SyncCount). The count does
// not carry across journal rotations; tests reading it bracket a window
// short enough that no checkpoint rotates the segment.
func (c *Core) JournalSyncCount() int64 {
	if c.journal == nil {
		return 0
	}
	return c.journal.SyncCount()
}

// SetJournalState seeds the journal id and metadata generation from
// recovered checkpoint metadata.
func (c *Core) SetJournalState(journalID, metaGen uint64) {
	c.journalID = journalID
	c.metaGen = metaGen
}

// journalName mints the next segment name.
func (c *Core) journalName() string {
	c.journalID++
	return fmt.Sprintf("%s%06d", c.cfg.JournalPrefix, c.journalID)
}

// StartJournal creates the initial journal segment (no-op when
// journaling is disabled).
func (c *Core) StartJournal() error {
	if c.cfg.DisableJournal {
		return nil
	}
	w, err := wal.Create(c.fs, c.journalName(), c.cfg.Content)
	if err != nil {
		return err
	}
	c.journal = w
	return nil
}

// BeginGroup opens a group commit: while it is active, engines skip
// their per-record journal syncs (they consult GroupActive at the
// append site) so a batch of writes from independent clients commits
// with one sync. The serving layer brackets multi-write intake batches
// with BeginGroup/EndGroup.
func (c *Core) BeginGroup() { c.group = true }

// GroupActive reports whether a group commit is open.
func (c *Core) GroupActive() bool { return c.group }

// EndGroup closes the group and, when sync is set, durably syncs the
// journal tail once, returning the sync completion time. Records whose
// segment was rotated away by an intervening checkpoint need no sync —
// the checkpoint superseded them.
func (c *Core) EndGroup(now sim.Duration, sync bool) (sim.Duration, error) {
	c.group = false
	if !sync || c.journal == nil {
		return now, nil
	}
	return c.journal.Sync(now)
}

// wrapJournal opens the next journal segment, reusing a recycled one
// when available.
func (c *Core) wrapJournal() (*wal.Writer, error) {
	if n := len(c.journalPool); n > 0 {
		w := c.journalPool[n-1]
		c.journalPool = c.journalPool[:n-1]
		return w, nil
	}
	return wal.Create(c.fs, c.journalName(), c.cfg.Content)
}

// poolTracks reports whether a recycled segment with the given name is
// waiting in the pool.
func (c *Core) poolTracks(name string) bool {
	for _, w := range c.journalPool {
		if w.Name() == name {
			return true
		}
	}
	return false
}

// ---- checkpoint scheduling ----

// MaybeCheckpoint starts a checkpoint when the interval elapsed — or the
// deferred-release backlog has grown too large — and none is running.
func (c *Core) MaybeCheckpoint(now sim.Duration) {
	if c.ckptW.QueueLen() > 0 {
		return
	}
	intervalDue := now-c.lastCkpt >= c.cfg.CheckpointInterval
	pendingDue := c.bm.PendingPages()*int64(c.fs.PageSize()) >= c.cfg.CheckpointPendingBytes
	if !intervalDue && !pendingDue {
		return
	}
	c.lastCkpt = now
	job, err := c.NewCheckpointJob()
	if err != nil {
		c.Fail(err)
		return
	}
	if job != nil {
		c.ckptW.Submit(job)
	}
}

// Checkpoint runs a full checkpoint synchronously: drain in-flight
// background work, snapshot, write, commit. It returns the virtual
// completion time.
func (c *Core) Checkpoint(now sim.Duration) (sim.Duration, error) {
	c.ckptW.Pump(now)
	end := c.ckptW.RunUntilDrained()
	if end < now {
		end = now
	}
	job, err := c.NewCheckpointJob()
	if err != nil {
		return end, err
	}
	if job != nil {
		c.ckptW.Submit(job)
		end = c.ckptW.RunUntilDrained()
	}
	if c.fatal != nil {
		return end, c.fatal
	}
	return end, nil
}

// Quiesce drains background checkpoint work.
func (c *Core) Quiesce(now sim.Duration) sim.Duration {
	c.ckptW.Pump(now)
	end := c.ckptW.RunUntilDrained()
	if end < now {
		end = now
	}
	return end
}
