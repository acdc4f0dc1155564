package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ptsbench/internal/core"
)

// tiny shrinks a workload's cell so a test pass takes seconds.
func tiny(spec core.Spec) core.Spec {
	spec.Scale = 2048
	spec.Duration = 10 * time.Minute
	return spec
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q (%q), command has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestTinyPassPrintsEveryMetric runs every workload at a tiny scale and
// a non-default seed in both modes, and checks that the last output line
// carries exactly the metrics BENCHMARK.json names, each with its unit,
// and a correct run.
func TestTinyPassPrintsEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	spans := filepath.Join(t.TempDir(), "spans.tsv")
	for _, w := range workloads {
		spec := tiny(w.spec)
		spec.Seed = 2
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			var out, errOut bytes.Buffer
			if code := bench(w, spec, nil, 0, traced, spans, &out, &errOut); code != 0 {
				t.Fatalf("%s traced=%v: exit %d: %s", w.name, traced, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rpt report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rpt); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", w.name, traced, err)
			}
			if !rpt.Correct || rpt.Failed != 0 || rpt.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, rpt.Correct, rpt.Attempted, rpt.Failed, out.String())
			}
			if len(rpt.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(rpt.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rpt.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
		if data, err := os.ReadFile(spans); err != nil || !bytes.HasPrefix(data, []byte("index\tparent")) {
			t.Errorf("%s: span dump missing or malformed: %v", w.name, err)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// TestInterpositionKeepsResult checks that neither the pass-through
// driver under core.Run nor the traced stack of runCell changes the
// virtual result: both must equal plain core.Run bit for bit.
func TestInterpositionKeepsResult(t *testing.T) {
	for _, w := range workloads {
		spec := tiny(w.spec)
		spec.Seed = 3
		want, err := core.Run(spec)
		if err != nil {
			t.Fatal(err)
		}

		drv, err := newPassDriver(string(spec.Engine))
		if err != nil {
			t.Fatal(err)
		}
		passSpec := spec
		passSpec.Engine = core.EngineKind(drv.Name())
		got, err := core.Run(passSpec)
		if err != nil {
			t.Fatal(err)
		}
		if drv.SetupEnd().IsZero() {
			t.Errorf("%s: pass-through driver saw no load flush", w.name)
		}
		got.Spec.Engine = spec.Engine
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: core.Run through the pass-through driver differs from plain core.Run", w.name)
		}

		c, err := runCell(spec, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.res, want) {
			t.Errorf("%s: traced runCell result differs from core.Run:\n got %+v\nwant %+v", w.name, c.res.Steady, want.Steady)
		}
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree: a
// Pump whose two shard calls overlap, each with nested engine and
// device calls, merged from one client and two shard recorders.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{main: &recorder{spans: []span{
		{start: 0, end: 100, parent: -1, kind: kStorePump},     // 0
		{start: 100, end: 110, parent: -1, kind: kStoreSubmit}, // 1
	}}}
	tr.shards = []*recorder{
		{spans: []span{
			{start: 10, end: 60, parent: crossParent(0), kind: kReplica}, // 2
			{start: 15, end: 35, parent: 0, kind: kEnginePut},            // 3
			{start: 20, end: 25, parent: 1, kind: kDevWrite},             // 4
			{start: 40, end: 50, parent: 0, kind: kEnginePut},            // 5
		}},
		{spans: []span{
			{start: 30, end: 80, parent: crossParent(0), kind: kReplica}, // 6
			{start: 90, end: 95, parent: crossParent(0), kind: kReplica}, // 7
		}},
	}
	spans := tr.merge()
	wantParents := []int32{-1, -1, 0, 2, 3, 2, 0, 0}
	for i, s := range spans {
		if s.parent != wantParents[i] {
			t.Fatalf("span %d parent %d, want %d", i, s.parent, wantParents[i])
		}
	}
	// Pump 100 minus the union [10,80] ∪ [90,95] = 75.
	// Replica 2: 50 minus puts 20 and 10. Put 3: 20 minus device 5.
	want := []int64{25, 10, 20, 15, 5, 10, 50, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	wantRoots := []kind{kStorePump, kStoreSubmit, kStorePump, kStorePump, kStorePump, kStorePump, kStorePump, kStorePump}
	if got := rootKinds(spans); !reflect.DeepEqual(got, wantRoots) {
		t.Fatalf("root kinds %v, want %v", got, wantRoots)
	}
}

func TestRecorderNesting(t *testing.T) {
	tr := newTracer()
	sh := tr.shard()
	p := tr.client().begin(kStorePump)
	e := sh.begin(kEngineGet)
	d := sh.begin(kDevRead)
	sh.end(d)
	sh.end(e)
	tr.client().end(p)
	spans := tr.merge()
	if len(spans) != 3 || spans[1].parent != 0 || spans[2].parent != 1 {
		t.Fatalf("spans %+v", spans)
	}
	for _, s := range spans {
		if s.end < s.start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	var nilTracer *tracer
	if r := nilTracer.client(); r != nil || nilTracer.shard() != nil {
		t.Fatal("a nil tracer must hand out nil recorders")
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin(kDevWrite)) // must not panic
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(v uint64) pb {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func (b pb) uint(num int, v uint64) pb { return b.varint(uint64(num) << 3).varint(v) }

func (b pb) bytes(num int, data []byte) pb {
	return append(b.varint(uint64(num)<<3|2).varint(uint64(len(data))), data...)
}

func TestFoldProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.memmove", "ptsbench/internal/extfs.(*allocator).carve",
		"ptsbench/internal/sim.(*Worker).Run", "ptsbench/internal/lsm.(*DB).Put",
		"runtime.gcBgMarkWorker"}
	var p pb
	p = p.bytes(1, pb(nil).uint(1, 1).uint(2, 2))
	p = p.bytes(1, pb(nil).uint(1, 3).uint(2, 4))
	// Functions 1..5 name strings 5..9; location i holds function i.
	for i := uint64(1); i <= 5; i++ {
		p = p.bytes(5, pb(nil).uint(1, i).uint(2, i+4))
		p = p.bytes(4, pb(nil).uint(1, i).bytes(4, pb(nil).uint(1, i)))
	}
	sample := func(cpu uint64, locs ...uint64) pb {
		var packed pb
		for _, l := range locs {
			packed = packed.varint(l)
		}
		return pb(nil).bytes(1, packed).bytes(2, pb(nil).varint(1).varint(cpu))
	}
	p = p.bytes(2, sample(30, 1, 2, 4)) // memmove in extfs: extfs
	p = p.bytes(2, sample(50, 3, 4))    // sim (unlisted) under lsm: lsm
	p = p.bytes(2, sample(20, 5))       // background GC: runtime_gc
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	shares, err := foldProfile(gz.Bytes(), foldPkgs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"extfs": 0.3, "lsm": 0.5, "runtime_gc": 0.2}
	for _, pkg := range append(foldPkgs, "runtime_gc") {
		if shares[pkg] != want[pkg] {
			t.Errorf("share of %s = %v, want %v", pkg, shares[pkg], want[pkg])
		}
	}
	if len(shares) != len(foldPkgs)+1 {
		t.Errorf("%d shares, want %d", len(shares), len(foldPkgs)+1)
	}
}

func TestChecker(t *testing.T) {
	fp := fingerprint{Ops: 10, KOpsScaled: 1.5}
	c := &checker{}
	c.add("a", fp, nil)
	c.add("b", fp, nil)
	if c.failed != 0 || c.attempted != 20 {
		t.Fatalf("agreeing repetitions: %+v", c)
	}
	other := fp
	other.WAD = 2
	c.add("c", other, nil)
	c.add("d", fingerprint{}, os.ErrInvalid)
	if c.failed != 20 || c.attempted != 40 || len(c.problems) != 2 {
		t.Fatalf("mismatch and error must count their ops as failed: %+v", c)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	v := []int64{5, 1, 4, 2, 3}
	if q := quantile(v, 0.5); q != 3 {
		t.Errorf("p50 = %d", q)
	}
	if q := quantile(v, 0.99); q != 5 {
		t.Errorf("p99 = %d", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
