package main

import (
	"cmp"
	"slices"
	"time"
)

// kind names one traced call: the layer it enters and the operation.
type kind uint8

const (
	kStoreSubmit kind = iota
	kStorePump
	kStoreLoad
	kStoreFlush
	kWorkloadNext
	kReplica // any call into a replica.Group
	kEnginePut
	kEngineGet
	kEngineOther // FlushAll, group commit, Delete, Scan, Quiesce, Close
	kDevRead
	kDevWrite
	kDevDiscard
	kDevSync
	numKinds
)

// layer returns the layer a kind belongs to.
func (k kind) layer() string {
	switch {
	case k <= kStoreFlush:
		return "store"
	case k == kWorkloadNext:
		return "workload"
	case k == kReplica:
		return "replica"
	case k <= kEngineOther:
		return "engine"
	default:
		return "device"
	}
}

// span is one timed call across a layer boundary. Times are nanoseconds
// since the trace began; parent indexes the enclosing span in the merged
// trace, or is -1 for a root.
type span struct {
	start, end int64
	parent     int32
	kind       kind
}

// recorder keeps the spans of one goroutine's call stack: the main
// (client) goroutine, or the worker of one store shard. A nil recorder
// records nothing, so untraced stacks can share the wrappers.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int32
	// main is the client recorder for a shard recorder: a shard span
	// opened with nothing else open on its stack is a child of the
	// store call (Pump, Load, FlushAll) the client goroutine has open.
	// The client opens that span before handing work to the shard
	// workers, so reading its stack here is ordered after the write.
	main *recorder
}

// crossParent encodes a parent index that lives in the main recorder.
func crossParent(i int32) int32 { return -2 - i }

func (r *recorder) begin(k kind) int32 {
	if r == nil {
		return 0
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	} else if r.main != nil {
		if n := len(r.main.open); n > 0 {
			parent = crossParent(r.main.open[n-1])
		}
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{start: int64(time.Since(r.t0)), parent: parent, kind: k})
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// tracer owns the recorders of one traced cell.
type tracer struct {
	main   *recorder
	shards []*recorder
}

func newTracer() *tracer {
	return &tracer{main: &recorder{t0: time.Now()}}
}

// client returns the client goroutine's recorder (nil when untraced).
func (t *tracer) client() *recorder {
	if t == nil {
		return nil
	}
	return t.main
}

// shard returns a fresh recorder for one shard's stack (nil when
// untraced). Shards are opened in order, one recorder each.
func (t *tracer) shard() *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{t0: t.main.t0, main: t.main}
	t.shards = append(t.shards, r)
	return r
}

// merge concatenates every recorder's spans, client spans first, and
// rewrites parents into merged indices. A parent always precedes its
// children in the result.
func (t *tracer) merge() []span {
	out := append([]span(nil), t.main.spans...)
	for _, r := range t.shards {
		off := int32(len(out))
		for _, s := range r.spans {
			switch {
			case s.parent >= 0:
				s.parent += off
			case s.parent <= -2:
				s.parent = -2 - s.parent
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by the union of its children. Children may
// overlap one another when they ran on different shard workers.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	var kids []int32
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	slices.SortFunc(kids, func(a, b int32) int {
		sa, sb := &spans[a], &spans[b]
		if c := cmp.Compare(sa.parent, sb.parent); c != 0 {
			return c
		}
		return cmp.Compare(sa.start, sb.start)
	})
	for i := 0; i < len(kids); {
		p := spans[kids[i]].parent
		lo, hi := spans[p].start, spans[p].end
		var covered int64
		curS, curE := int64(0), int64(-1)
		for ; i < len(kids) && spans[kids[i]].parent == p; i++ {
			c := spans[kids[i]]
			s, e := max(c.start, lo), min(c.end, hi)
			if e <= s {
				continue
			}
			if s > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = s, e
			} else if e > curE {
				curE = e
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		self[p] -= covered
	}
	return self
}

// rootKinds returns, for every span, the kind of its outermost ancestor
// (itself for a root), which tells the load phase (Load, FlushAll) from
// the measured phase (Submit, Pump, workload Next).
func rootKinds(spans []span) []kind {
	roots := make([]kind, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			roots[i] = roots[s.parent]
		} else {
			roots[i] = s.kind
		}
	}
	return roots
}
