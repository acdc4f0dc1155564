package cowtree

import (
	"bytes"
	"encoding/binary"

	"ptsbench/internal/kv"
)

// entryHeaderBytes is an entry's serialized header: keyLen(2) +
// valueLen(4) + seq(8, tombstone in bit 63).
const entryHeaderBytes = 14

// Entry is one key-value record of a tree node: a B+Tree leaf entry, or
// a Bε-tree leaf entry or buffered message (buffers and leaves share the
// representation because a flush moves messages unchanged until they
// land in a leaf). It carries the key, the value bytes in content mode,
// the accounted value length, the sequence number and the tombstone
// flag.
//
// Entry holds no Go pointer: key and value bytes live in the tree's
// Arena and are named by integer Refs. Entry arrays therefore sit in
// noscan spans the collector never walks, and the shifts of an insert
// or split are plain memmoves without write barriers. A KeySize key —
// every key of the paper's workloads — keeps its two big-endian words
// inline, so comparing two such keys reads only the entries themselves;
// a key of any other length lives in the arena, and hi holds its Ref.
// klen and the words come first so a binary-search probe touches one
// cache line more often than not.
type Entry struct {
	klen   uint16
	del    bool
	vlen   int32  // accounted value length
	hi, lo uint64 // KeySize key: its words; otherwise hi is the key's Ref
	seq    uint64
	val    Ref // vlen value bytes; nil in accounting mode
}

// NewEntry builds an entry, copying key (unless it is stored inline) and
// val into a, so the caller may reuse its buffers. A non-nil val
// overrides vlen, keeping the stored bytes and the accounted size
// consistent.
func NewEntry(a *Arena, key, val []byte, seq uint64, vlen int, del bool) Entry {
	if val != nil {
		vlen = len(val)
	}
	e := Entry{klen: uint16(len(key)), del: del, vlen: int32(vlen), seq: seq, val: a.CloneRef(val)}
	if hi, lo, ok := kv.DecomposeKey(key); ok {
		e.hi, e.lo = hi, lo
	} else {
		e.hi = uint64(a.CloneRef(key))
	}
	return e
}

// Seq returns the entry's sequence number.
func (e *Entry) Seq() uint64 { return e.seq }

// Deleted reports whether the entry is a tombstone.
func (e *Entry) Deleted() bool { return e.del }

// ValueLen returns the accounted value length.
func (e *Entry) ValueLen() int { return int(e.vlen) }

// Bytes returns the entry's serialized footprint.
func (e *Entry) Bytes() int { return entryHeaderBytes + int(e.klen) + int(e.vlen) }

// Value returns the value bytes held in a (nil in accounting mode).
func (e *Entry) Value(a *Arena) []byte { return a.Lookup(e.val, int(e.vlen)) }

// key returns the entry's key bytes: the arena's copy, or an inline key
// spelled out in buf.
func (e *Entry) key(a *Arena, buf *[kv.KeySize]byte) []byte {
	if e.klen == kv.KeySize {
		binary.BigEndian.PutUint64(buf[:], e.hi)
		binary.BigEndian.PutUint64(buf[8:], e.lo)
		return buf[:]
	}
	return a.Lookup(Ref(e.hi), int(e.klen))
}

// Compare orders two entries' keys like bytes.Compare. Two KeySize keys
// compare their inline words and never touch the arena; any other pair
// falls back to comparing the bytes.
func Compare(a *Arena, x, y *Entry) int {
	if x.klen == kv.KeySize && y.klen == kv.KeySize {
		return compareWords(x.hi, x.lo, y.hi, y.lo)
	}
	var bx, by [kv.KeySize]byte
	return bytes.Compare(x.key(a, &bx), y.key(a, &by))
}

func compareWords(xh, xl, yh, yl uint64) int {
	switch {
	case xh < yh:
		return -1
	case xh > yh:
		return 1
	case xl < yl:
		return -1
	case xl > yl:
		return 1
	}
	return 0
}

// Find returns the index of the first entry in the sorted es whose key
// is >= key, and whether that entry's key equals key. It is the B-tree
// family's one search: leaves, buffers and buffer cuts at separators all
// go through it. A KeySize target is decomposed once and probes compare
// raw words against inline keys (an open-coded loop: the closure-based
// sort.Search showed up in every descend/insert profile).
func Find(a *Arena, es []Entry, key []byte) (int, bool) {
	hi, lo, fast := kv.DecomposeKey(key)
	i, j := 0, len(es)
	for i < j {
		mid := int(uint(i+j) >> 1)
		var c int
		if e := &es[mid]; fast && e.klen == kv.KeySize {
			c = compareWords(e.hi, e.lo, hi, lo)
		} else {
			c = e.compareKey(a, key)
		}
		if c < 0 {
			i = mid + 1
		} else {
			j = mid
		}
	}
	if i == len(es) {
		return i, false
	}
	if e := &es[i]; fast && e.klen == kv.KeySize {
		return i, e.hi == hi && e.lo == lo
	}
	return i, es[i].compareKey(a, key) == 0
}

// compareKey is Find's fallback: e's key bytes against key.
func (e *Entry) compareKey(a *Arena, key []byte) int {
	var buf [kv.KeySize]byte
	return bytes.Compare(e.key(a, &buf), key)
}

// AppendEntry appends e's serialized form to out: the header, the key,
// then the value (zeros in accounting mode).
func AppendEntry(out []byte, a *Arena, e *Entry) []byte {
	var hdr [entryHeaderBytes]byte
	binary.LittleEndian.PutUint16(hdr[0:], e.klen)
	binary.LittleEndian.PutUint32(hdr[2:], uint32(e.vlen))
	seq := e.seq
	if e.del {
		seq |= 1 << 63
	}
	binary.LittleEndian.PutUint64(hdr[6:], seq)
	out = append(out, hdr[:]...)
	var buf [kv.KeySize]byte
	out = append(out, e.key(a, &buf)...)
	if e.val != nilRef {
		return append(out, e.Value(a)...)
	}
	return appendZeros(out, int(e.vlen))
}

// ParseEntry decodes one serialized entry, copying its key and value
// into a, and returns it with the bytes consumed (0 on corruption).
func ParseEntry(a *Arena, data []byte) (Entry, int) {
	if len(data) < entryHeaderBytes {
		return Entry{}, 0
	}
	kl := int(binary.LittleEndian.Uint16(data[0:]))
	vl := int(binary.LittleEndian.Uint32(data[2:]))
	seq := binary.LittleEndian.Uint64(data[6:])
	if entryHeaderBytes+kl+vl > len(data) {
		return Entry{}, 0
	}
	body := data[entryHeaderBytes:]
	e := NewEntry(a, body[:kl], body[kl:kl+vl], seq&^(1<<63), vl, seq&(1<<63) != 0)
	return e, entryHeaderBytes + kl + vl
}

// Mem is a tree's entry storage: the arena its entries' (and
// separators') bytes live in and the pool its entry arrays recycle
// through. Both are immortal-bump or recycling, so the steady-state
// insert path allocates nothing.
type Mem struct {
	Arena   Arena
	Entries Pool[Entry]
	keyBuf  [kv.KeySize]byte // Key's scratch for inline keys
}

// Key returns e's key bytes: the arena's copy, or an inline key spelled
// out in scratch that the next call overwrites. Callers that keep the
// key copy it.
func (m *Mem) Key(e *Entry) []byte { return e.key(&m.Arena, &m.keyBuf) }

// Upsert inserts e into the sorted es, or overwrites the entry with the
// same key, and returns the slice and the serialized-size delta. An
// update older (lower seq) than the resident entry is dropped; only
// recovery replay produces one. Growth recycles through the pool, so
// with e's bytes already in the arena nothing is allocated.
func (m *Mem) Upsert(es []Entry, e Entry) ([]Entry, int) {
	i, found := Find(&m.Arena, es, m.Key(&e))
	if !found {
		return m.Entries.GrowInsert(es, i, e), e.Bytes()
	}
	old := &es[i]
	if e.seq < old.seq {
		return es, 0
	}
	delta := e.Bytes() - old.Bytes()
	*old = e
	return es, delta
}
