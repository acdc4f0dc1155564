package betree

import (
	"encoding/binary"

	"ptsbench/internal/cowtree"
)

// The checkpoint discipline — dirty-ancestor-closure snapshot, bottom-up
// write order, writeSubtreeClean for split-orphaned descendants, the
// root-spine write at commit, journal rotation/recycling and the
// double-buffered metadata — lives in internal/cowtree. What makes the
// Bε-tree's checkpoints distinctive is purely a codec property kept
// here: interior images carry their message buffers, which is what makes
// buffered-but-unflushed updates durable.

// nodeMagic marks a serialized Bε-tree node ("BEPG").
const nodeMagic = 0x42455047

// serializeNode appends the on-disk image of a node (content mode) to
// out and returns it. Layout: header {magic, leaf flag, count,
// bufCount}, then entries (leaf) or separators + child extent references
// + buffered messages (interior); entries and messages share one codec
// (cowtree.AppendEntry). a is the arena their bytes live in. resolve
// maps a child nodeID to its current on-disk extent.
func serializeNode(out []byte, a *cowtree.Arena, n *node, resolve func(nodeID) fileExtent) []byte {
	var hdr [pageHeaderBytes]byte
	base := len(out)
	out = append(out, hdr[:]...)
	binary.LittleEndian.PutUint32(out[base:], nodeMagic)
	if n.leaf {
		out[base+4] = 1
		binary.LittleEndian.PutUint32(out[base+8:], uint32(len(n.entries)))
		for i := range n.entries {
			out = cowtree.AppendEntry(out, a, &n.entries[i])
		}
		return out
	}
	binary.LittleEndian.PutUint32(out[base+8:], uint32(len(n.seps)))
	binary.LittleEndian.PutUint32(out[base+12:], uint32(len(n.buf)))
	for _, sep := range n.seps {
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(sep)))
		out = append(out, l[:]...)
		out = append(out, sep...)
	}
	for _, c := range n.children {
		var ext fileExtent
		if resolve != nil {
			ext = resolve(c)
		}
		var b [childRefBytes]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(ext.Start))
		binary.LittleEndian.PutUint32(b[8:], uint32(ext.Pages))
		out = append(out, b[:]...)
	}
	for i := range n.buf {
		out = cowtree.AppendEntry(out, a, &n.buf[i])
	}
	return out
}

// parseNode reconstructs a node from its serialized image, copying its
// keys and values into a.
func parseNode(data []byte, a *cowtree.Arena) (*node, bool) {
	if len(data) < pageHeaderBytes {
		return nil, false
	}
	if binary.LittleEndian.Uint32(data[0:]) != nodeMagic {
		return nil, false
	}
	n := &node{leaf: data[4] == 1}
	count := int(binary.LittleEndian.Uint32(data[8:]))
	off := pageHeaderBytes
	if n.leaf {
		for i := 0; i < count; i++ {
			m, used := cowtree.ParseEntry(a, data[off:])
			if used == 0 {
				return nil, false
			}
			n.entries = append(n.entries, m)
			off += used
		}
		return n, true
	}
	bufCount := int(binary.LittleEndian.Uint32(data[12:]))
	for i := 0; i < count; i++ {
		if off+2 > len(data) {
			return nil, false
		}
		sl := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+sl > len(data) {
			return nil, false
		}
		n.seps = append(n.seps, a.Clone(data[off:off+sl]))
		off += sl
	}
	for i := 0; i <= count; i++ {
		if off+childRefBytes > len(data) {
			return nil, false
		}
		n.childExtents = append(n.childExtents, fileExtent{
			Start: int64(binary.LittleEndian.Uint64(data[off:])),
			Pages: int64(binary.LittleEndian.Uint32(data[off+8:])),
		})
		n.children = append(n.children, nilNode) // assigned during rebuild
		off += childRefBytes
	}
	for i := 0; i < bufCount; i++ {
		m, used := cowtree.ParseEntry(a, data[off:])
		if used == 0 {
			return nil, false
		}
		n.buf = append(n.buf, m)
		n.bufBytes += m.Bytes()
		off += used
	}
	return n, true
}
