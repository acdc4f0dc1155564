package cowtree

import (
	"bytes"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// TestEntryIsPointerFree guards the layout the B-tree family's speed
// rests on: an Entry holds no pointer-shaped field, so Entry arrays are
// allocated in noscan spans and shifted with plain memmoves. A field
// that reintroduced a pointer would silently put every leaf and buffer
// back under the collector's scan.
func TestEntryIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: Entry arrays would be scanned by the collector", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Entry", reflect.TypeOf(Entry{}))
	if sz := unsafe.Sizeof(Entry{}); sz > 48 {
		t.Errorf("Entry is %d bytes, want <= 48", sz)
	}
}

// randKey returns a key that is KeySize bytes most of the time and of
// another length (empty included) otherwise, drawn from a small
// alphabet so prefixes and equal keys are common.
func randKey(rng *sim.RNG) []byte {
	n := kv.KeySize
	if rng.Uint64n(3) == 0 {
		n = int(rng.Uint64n(2 * kv.KeySize))
	}
	k := make([]byte, n)
	for i := range k {
		k[i] = byte(rng.Uint64n(3))
	}
	return k
}

// TestFindAndCompareMatchBytes checks the word fast path and the byte
// fallback against bytes.Compare over mixed-length keys: Upsert keeps
// the array sorted and duplicate-free, Find agrees with a reference
// binary search, and Compare agrees in sign.
func TestFindAndCompareMatchBytes(t *testing.T) {
	rng := sim.NewRNG(3)
	var m Mem
	var es []Entry
	ref := map[string]bool{}
	for i := 0; i < 3000; i++ {
		k := randKey(rng)
		es, _ = m.Upsert(es, NewEntry(&m.Arena, k, nil, uint64(i), 8, false))
		ref[string(k)] = true
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if len(es) != len(keys) {
		t.Fatalf("%d entries, want %d distinct keys", len(es), len(keys))
	}
	for i := range es {
		if got := string(m.Key(&es[i])); got != keys[i] {
			t.Fatalf("entry %d key %x, want %x", i, got, keys[i])
		}
	}
	for i := 0; i < 3000; i++ {
		k := randKey(rng)
		want := sort.SearchStrings(keys, string(k))
		got, found := Find(&m.Arena, es, k)
		if got != want || found != (want < len(keys) && keys[want] == string(k)) {
			t.Fatalf("Find(%x) = %d,%v; want %d", k, got, found, want)
		}
		x, y := &es[rng.Uint64n(uint64(len(es)))], &es[rng.Uint64n(uint64(len(es)))]
		want = bytes.Compare(append([]byte(nil), m.Key(x)...), m.Key(y))
		if got := Compare(&m.Arena, x, y); got != want {
			t.Fatalf("Compare(%x, %x) = %d, want %d", m.Key(x), m.Key(y), got, want)
		}
	}
}

// FuzzArenaRef drives the arena with op bytes choosing allocations of
// every size class — nil, empty, small, exactly one chunk, larger than
// a chunk — interleaved with separator-style Clones, and checks that
// every Ref resolves to the bytes written, nil stays distinct from
// empty, and no two live allocations share a byte.
func FuzzArenaRef(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{2, 2, 2, 3, 2, 4, 2, 0, 1})
	f.Add(bytes.Repeat([]byte{0x82}, 40))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		type alloc struct {
			ref   Ref
			b     []byte // the bytes as returned (Clone) or looked up
			want  []byte // nil for a nil allocation
			isRef bool
		}
		var a Arena
		var live []alloc
		for i, op := range ops {
			var n int
			switch op % 6 {
			case 0:
				n = -1 // nil
			case 1:
				n = 0
			case 2, 5:
				n = 1 + int(op>>3)*37
			case 3:
				n = arenaChunkBytes
			case 4:
				n = arenaChunkBytes + 1 + int(op>>3)
			}
			var src []byte
			if n >= 0 {
				src = make([]byte, n)
				for j := range src {
					src[j] = byte(i*131 + j*7 + 1)
				}
			}
			if op%6 == 5 {
				live = append(live, alloc{b: a.Clone(src), want: src})
				continue
			}
			r := a.CloneRef(src)
			live = append(live, alloc{ref: r, want: src, isRef: true})
		}
		type span struct{ lo, hi uintptr }
		var spans []span
		for i := range live {
			l := &live[i]
			if l.isRef {
				l.b = a.Lookup(l.ref, len(l.want))
			}
			if (l.b == nil) != (l.want == nil) {
				t.Fatalf("alloc %d: nil-ness lost (got nil=%v, want nil=%v)", i, l.b == nil, l.want == nil)
			}
			if !bytes.Equal(l.b, l.want) {
				t.Fatalf("alloc %d: resolved bytes differ from the bytes written", i)
			}
			if cap(l.b) != len(l.b) {
				t.Fatalf("alloc %d: capacity %d exceeds length %d", i, cap(l.b), len(l.b))
			}
			if len(l.b) > 0 {
				lo := uintptr(unsafe.Pointer(unsafe.SliceData(l.b)))
				spans = append(spans, span{lo, lo + uintptr(len(l.b))})
			}
		}
		slices.SortFunc(spans, func(x, y span) int {
			if x.lo < y.lo {
				return -1
			}
			if x.lo > y.lo {
				return 1
			}
			return 0
		})
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				t.Fatalf("two live allocations overlap: [%#x,%#x) and [%#x,%#x)",
					spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
			}
		}
	})
}
