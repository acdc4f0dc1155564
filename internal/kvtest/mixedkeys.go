package kvtest

import (
	"bytes"
	"sort"
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// RunMixedKeys drives an engine with keys of mixed lengths against a
// sorted reference model, in accounting and in content mode. The paper's
// workloads use only KeySize keys, so engines with a fixed-size fast
// path (the tree family's inline key words) never reach their
// byte-compare fallback there; this suite does. About one key in three
// is not KeySize bytes long, keys share prefixes, and content-mode
// values include nil and empty ones, whose nil-ness Get must keep. A
// content-mode run finishes with a recovery whose Gets must agree with
// the model (a nil value then reads back as its accounted zero bytes).
//
// It is not part of Run: the LSM's key handling is not held to it.
func RunMixedKeys(t *testing.T, open Factory) {
	t.Run("Accounting", func(t *testing.T) { testMixedKeys(t, open, false) })
	t.Run("Content", func(t *testing.T) { testMixedKeys(t, open, true) })
}

// mixedVal is the model's record of one key.
type mixedVal struct {
	val  []byte // nil: none stored (accounting mode, or a nil Put)
	vlen int
	live bool
}

func mixedKey(rng *sim.RNG) []byte {
	if rng.Uint64n(3) != 0 {
		return kv.EncodeKey(rng.Uint64n(300))
	}
	// Other lengths (1..2*KeySize-1) over a two-letter alphabet, so keys
	// are often prefixes of each other and of the KeySize keys.
	n := 1 + int(rng.Uint64n(2*kv.KeySize-1))
	if n == kv.KeySize {
		n++
	}
	k := make([]byte, n)
	for i := range k {
		k[i] = byte(rng.Uint64n(2))
	}
	return k
}

func testMixedKeys(t *testing.T, open Factory, content bool) {
	s := open(t, content)
	e := s.Engine
	rng := sim.NewRNG(41)
	model := map[string]*mixedVal{}
	var now sim.Duration
	var err error

	check := func(key []byte) {
		t.Helper()
		var got []byte
		var found bool
		now, got, found, err = e.Get(now, key)
		if err != nil {
			t.Fatal(err)
		}
		m := model[string(key)]
		if want := m != nil && m.live; found != want {
			t.Fatalf("Get(%x): found=%v, want %v", key, found, want)
		}
		if !found {
			return
		}
		if (got == nil) != (m.val == nil) || !bytes.Equal(got, m.val) {
			t.Fatalf("Get(%x) = %x (nil=%v), want %x (nil=%v)", key, got, got == nil, m.val, m.val == nil)
		}
	}
	scan := func(start []byte, limit int) {
		t.Helper()
		var got []kv.Entry
		now, got, err = e.Scan(now, start, limit)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for k, m := range model {
			if m.live && k >= string(start) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		if len(want) > limit {
			want = want[:limit]
		}
		if len(got) != len(want) {
			t.Fatalf("Scan(%x, %d) returned %d entries, want %d", start, limit, len(got), len(want))
		}
		for i, g := range got {
			m := model[want[i]]
			if string(g.Key) != want[i] || g.ValueLen != m.vlen || !bytes.Equal(g.Value, m.val) {
				t.Fatalf("Scan(%x) entry %d = {%x len %d %x}, want {%x len %d %x}",
					start, i, g.Key, g.ValueLen, g.Value, want[i], m.vlen, m.val)
			}
		}
	}

	for i := 0; i < 4000; i++ {
		key := mixedKey(rng)
		switch r := rng.Uint64n(20); {
		case r < 3:
			now, err = e.Delete(now, key)
			if m := model[string(key)]; m != nil {
				*m = mixedVal{}
			}
		case r < 6:
			check(key)
		case r == 6:
			scan(mixedKey(rng), 1+int(rng.Uint64n(40)))
		default:
			var val []byte
			vlen := 1 + int(rng.Uint64n(120))
			if content {
				switch rng.Uint64n(4) {
				case 0: // nil value, accounted length only
				case 1:
					val, vlen = []byte{}, 0
				default:
					val = make([]byte, vlen)
					kv.SynthValue(val, key, uint64(i))
				}
			}
			now, err = e.Put(now, key, val, vlen)
			model[string(key)] = &mixedVal{val: append([]byte(nil), val...), vlen: vlen, live: true}
			if val != nil && len(val) == 0 {
				model[string(key)].val = []byte{}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			if now, err = e.FlushAll(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := range model {
		check([]byte(k))
	}
	scan(nil, len(model)+1)
	if !content || s.Reopen == nil {
		return
	}

	now = e.Quiesce(now)
	re, rnow, err := s.Reopen(now)
	if err != nil {
		t.Fatal(err)
	}
	for k, m := range model {
		_, got, found, err := re.Get(rnow, []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if found != m.live {
			t.Fatalf("recovered Get(%x): found=%v, want %v", k, found, m.live)
		}
		want := m.val
		if want == nil {
			want = make([]byte, m.vlen)
		}
		if found && !bytes.Equal(got, want) {
			t.Fatalf("recovered Get(%x) = %x, want %x", k, got, want)
		}
	}
}
