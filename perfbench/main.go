// Command perfbench is the simulator's benchmark. It runs one experiment
// cell of a named workload through core.Run, the way the CLI and the
// figures do, repeatedly for a wall-clock budget, and prints end-to-end
// metrics: simulated operations per wall second, set-up time and the
// memory the Go runtime held. With --trace 1 it also runs the cell once
// profiled and once with spans at every layer boundary, and prints
// per-layer metrics instead. Every repetition's virtual result is
// checked against the others and, at the default seed, against the
// fingerprints recorded in fingerprints.json: a run that simulates
// different work counts as failed.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload lsm-write --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"ptsbench/internal/core"
	_ "ptsbench/internal/engine/all"
	"ptsbench/internal/workload"
)

// defaultSeed is the seed the recorded fingerprints belong to.
const defaultSeed = 1

// workloadDef is one benchmark workload: an experiment cell at the
// paper's default sizing (dataset half the device, 4000 B values) and
// the engines' default caches, all far smaller than the dataset.
type workloadDef struct {
	name string
	why  string
	spec core.Spec
}

var workloads = []workloadDef{
	{
		name: "lsm-write",
		why:  "LSM 100% updates on a preconditioned device: write path, compaction, extfs allocation and FTL GC; the inline 1-shard store and tiny heap make it blind to serving-layer and GC changes",
		spec: core.Spec{
			Engine: core.LSM, Scale: 64, Dist: workload.Uniform,
			Initial: core.Preconditioned, Duration: 240 * time.Minute,
		},
	},
	{
		name: "btree-read",
		why:  "B+Tree 90% reads, Zipfian, trimmed device: page search, key compares and cache misses to device reads; few flash writes, so blind to write-path and FTL changes",
		spec: core.Spec{
			Engine: core.BTree, Scale: 64, ReadFraction: 0.9, Dist: workload.Zipfian,
			Duration: 360 * time.Minute,
		},
	},
	{
		name: "betree-repl",
		why:  "Be-tree 50/50 uniform on 2 shards of 3-replica chains with 8 clients: store fan-out, replication and a ~750 MB heap, so allocation, GC and store changes show here",
		spec: core.Spec{
			Engine: core.Betree, Scale: 128, ReadFraction: 0.5, Dist: workload.Uniform,
			Shards: 2, Replicas: 3, ReplMode: "chain", Clients: 8, Duration: 720 * time.Minute,
		},
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// fingerprint is the virtual-time result a repetition must reproduce.
type fingerprint struct {
	Ops        int64   `json:"virt.ops"`
	KOpsScaled float64 `json:"virt.kops_scaled"`
	WAA        float64 `json:"virt.waa"`
	WAD        float64 `json:"virt.wad"`
	P99us      float64 `json:"virt.p99_us"`
}

func fingerprintOf(r *core.Result) fingerprint {
	var ops int64
	if n := len(r.Series.Samples); n > 0 {
		ops = r.Series.Samples[n-1].Ops
	}
	return fingerprint{
		Ops:        ops,
		KOpsScaled: r.ScaledKOps,
		WAA:        r.Steady.WAA,
		WAD:        r.Steady.WAD,
		P99us:      float64(r.Latency.P99) / 1e3,
	}
}

// recordedJSON maps each workload to its fingerprint at defaultSeed.
//
//go:embed fingerprints.json
var recordedJSON []byte

// checker applies the fingerprint check and counts simulated ops.
type checker struct {
	want      *fingerprint
	attempted int64
	failed    int64
	problems  []string
}

// add records one repetition. A repetition that errored or whose
// fingerprint differs counts all of its ops as failed.
func (c *checker) add(what string, fp fingerprint, err error) {
	if err != nil {
		ops := int64(1)
		if c.want != nil {
			ops = c.want.Ops
		}
		c.attempted += ops
		c.failed += ops
		c.problems = append(c.problems, fmt.Sprintf("%s: %v", what, err))
		return
	}
	c.attempted += fp.Ops
	if c.want == nil {
		c.want = &fp
		return
	}
	if fp != *c.want {
		c.failed += fp.Ops
		c.problems = append(c.problems, fmt.Sprintf("%s: fingerprint %+v, want %+v", what, fp, *c.want))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rep is one untraced repetition through core.Run.
type rep struct {
	fp             fingerprint
	numKeys        uint64 // keys the load phase put
	setup, measure time.Duration
}

func (r rep) kops() float64 { return float64(r.fp.Ops) / r.measure.Seconds() / 1e3 }

// runRep runs the cell through core.Run behind a pass-through driver
// that marks the end of set-up.
func runRep(spec core.Spec) (rep, error) {
	drv, err := newPassDriver(string(spec.Engine))
	if err != nil {
		return rep{}, err
	}
	spec.Engine = core.EngineKind(drv.Name())
	start := time.Now()
	res, err := core.Run(spec)
	end := time.Now()
	if err != nil {
		return rep{}, err
	}
	if res.OutOfSpace {
		return rep{}, fmt.Errorf("cell ran out of space")
	}
	setupEnd := drv.SetupEnd()
	if setupEnd.IsZero() {
		return rep{}, fmt.Errorf("no load-phase flush observed")
	}
	return rep{fp: fingerprintOf(res), numKeys: res.NumKeys, setup: setupEnd.Sub(start), measure: end.Sub(setupEnd)}, nil
}

// Repetitions beyond the minimum start only while a run can still end
// well inside the three-minute limit of one benchmark invocation.
const (
	minReps    = 3
	repsCutoff = 120 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: lsm-write, btree-read or betree-repl")
	seed := fl.Uint64("seed", defaultSeed, "workload seed")
	seconds := fl.Int("seconds", 30, "wall-clock seconds of repetitions to measure")
	traceMode := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled and a traced run")
	traceOut := fl.String("trace-out", "", "with --trace 1, also write the spans to this file as TSV")
	record := fl.Bool("record", false, "run the cell once and print its fingerprint entry for fingerprints.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	spec := w.spec
	spec.Seed = *seed

	if *record {
		r, err := runRep(spec)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		out, _ := json.Marshal(map[string]fingerprint{w.name: r.fp})
		fmt.Fprintln(stdout, string(out))
		return 0
	}

	var want *fingerprint
	if *seed == defaultSeed {
		var recorded map[string]fingerprint
		if err := json.Unmarshal(recordedJSON, &recorded); err != nil {
			fmt.Fprintln(stderr, "perfbench: fingerprints.json:", err)
			return 1
		}
		if fp, ok := recorded[w.name]; ok {
			want = &fp
		}
	}
	return bench(w, spec, want, time.Duration(*seconds)*time.Second, *traceMode == 1, *traceOut, stdout, stderr)
}

// bench measures one workload's cell and prints the table and, last,
// the result line. want, when set, is the fingerprint every repetition
// must reproduce.
func bench(w workloadDef, spec core.Spec, want *fingerprint, budget time.Duration, traced bool, traceOut string, stdout, stderr io.Writer) int {
	chk := &checker{want: want}
	minimum := minReps
	if traced {
		minimum = 2
	}
	reps := repeat(spec, budget, minimum, chk, stderr)
	var table map[string]metric
	if traced {
		var err error
		table, err = perLayer(spec, reps, chk, traceOut)
		if err != nil {
			chk.add("per-layer runs", fingerprint{}, err)
		}
	} else {
		table = endToEnd(reps)
	}

	printTable(stdout, w, spec, chk, table)
	rpt := report{
		Correct:   chk.failed == 0 && len(chk.problems) == 0,
		Attempted: max(chk.attempted, 1),
		Failed:    chk.failed,
		Metrics:   table,
	}
	line, err := json.Marshal(rpt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// repeat runs untraced repetitions until the budget is spent (at least
// minimum of them), collecting memory between repetitions so each cell
// starts from an empty heap, and logs each one.
func repeat(spec core.Spec, budget time.Duration, minimum int, chk *checker, log io.Writer) []rep {
	var reps []rep
	start := time.Now()
	var last time.Duration
	for n := 0; n < minimum || time.Since(start) < budget && time.Since(start)+last < repsCutoff; n++ {
		t := time.Now()
		r, err := runRep(spec)
		chk.add(fmt.Sprintf("repetition %d", n+1), r.fp, err)
		if err == nil {
			reps = append(reps, r)
			fmt.Fprintf(log, "repetition %d: setup %.3fs, measured %.3fs, %.2f kops/s\n",
				n+1, r.setup.Seconds(), r.measure.Seconds(), r.kops())
		}
		runtime.GC()
		last = time.Since(t)
	}
	return reps
}

// endToEnd returns the untraced metrics: medians over repetitions.
func endToEnd(reps []rep) map[string]metric {
	var kops, setup []float64
	for _, r := range reps {
		kops = append(kops, r.kops())
		setup = append(setup, r.setup.Seconds())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]metric{
		"sim_kops":    {median(kops), "kops/s"},
		"setup_s":     {median(setup), "s"},
		"peak_mem_mb": {float64(ms.Sys) / (1 << 20), "MB"},
	}
}

// runtimeSample names the runtime/metrics the per-layer report reads.
var runtimeSample = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSample))
	for i, n := range runtimeSample {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// perLayer runs the cell once more through core.Run with the CPU
// profiler on and once traced, and returns the per-layer metrics. The
// profile and the runtime counters cover the whole cell, set-up
// included, and count every simulated op: the load's puts and the
// measured phase's operations.
func perLayer(spec core.Spec, reps []rep, chk *checker, traceOut string) (map[string]metric, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	r, err := runRep(spec)
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, fmt.Errorf("profiled run: %w", err)
	}
	chk.add("profiled run", r.fp, nil)
	shares, err := foldProfile(prof.Bytes(), foldPkgs)
	if err != nil {
		return nil, err
	}
	ops := float64(r.numKeys + uint64(r.fp.Ops))
	m := map[string]metric{
		"runtime.gc_cpu_share":       {ratio(rt1[0]-rt0[0], rt1[1]-rt0[1]), "frac"},
		"runtime.allocs_per_op":      {ratio(rt1[2]-rt0[2], ops), "allocs/op"},
		"runtime.alloc_bytes_per_op": {ratio(rt1[3]-rt0[3], ops), "B/op"},
		"runtime.gc_cycles":          {rt1[4] - rt0[4], "count"},
	}
	for p, v := range shares {
		m["cpu."+p] = metric{v, "frac"}
	}
	runtime.GC()

	tr := newTracer()
	c, err := runCell(spec, tr)
	if err == nil && c.res.OutOfSpace {
		err = fmt.Errorf("cell ran out of space")
	}
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	chk.add("traced run", fingerprintOf(c.res), nil)
	spans := tr.merge()
	var kops []float64
	for _, r := range reps {
		kops = append(kops, r.kops())
	}
	for k, v := range spanMetrics(c, spans, median(kops)) {
		m[k] = v
	}
	if traceOut != "" {
		if err := writeSpans(traceOut, spans); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// spanMetrics derives the span-based per-layer metrics of a traced cell
// from the spans of its measured phase.
func spanMetrics(c *cell, spans []span, untracedKops float64) map[string]metric {
	self := selfTimes(spans)
	roots := rootKinds(spans)
	var (
		count, total [numKinds]int64
		layerSelf    = map[string]int64{}
		pumps, puts  []int64
		gets         []int64
		shardBusy    int64
		rootTotal    int64
	)
	for i, s := range spans {
		if r := roots[i]; r == kStoreLoad || r == kStoreFlush {
			continue
		}
		d := s.end - s.start
		count[s.kind]++
		total[s.kind] += d
		layerSelf[s.kind.layer()] += self[i]
		switch s.kind {
		case kStorePump:
			pumps = append(pumps, d)
		case kEnginePut:
			puts = append(puts, d)
		case kEngineGet:
			gets = append(gets, d)
		}
		if s.parent < 0 {
			rootTotal += d
		} else if spans[s.parent].kind == kStorePump {
			shardBusy += d
		}
	}
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	wall := c.end.Sub(c.setupEnd)
	ops := float64(fingerprintOf(c.res).Ops)
	tracedKops := ops / wall.Seconds() / 1e3
	return map[string]metric{
		"store.pump_calls":            {float64(count[kStorePump]), "count"},
		"store.pump_s":                {secs(total[kStorePump]), "s"},
		"store.pump_p50_us":           {float64(quantile(pumps, 0.50)) / 1e3, "us"},
		"store.pump_p99_us":           {float64(quantile(pumps, 0.99)) / 1e3, "us"},
		"store.shard_busy_s":          {secs(shardBusy), "s"},
		"store.parallelism":           {ratio(float64(shardBusy), float64(total[kStorePump])), "x"},
		"replica.calls":               {float64(count[kReplica]), "count"},
		"replica.self_s":              {secs(layerSelf["replica"]), "s"},
		"replica.member_calls_per_op": {ratio(float64(count[kEnginePut]+count[kEngineGet]), ops), "calls/op"},
		"engine.put_calls":            {float64(count[kEnginePut]), "count"},
		"engine.get_calls":            {float64(count[kEngineGet]), "count"},
		"engine.put_s":                {secs(total[kEnginePut]), "s"},
		"engine.get_s":                {secs(total[kEngineGet]), "s"},
		"engine.put_p99_us":           {float64(quantile(puts, 0.99)) / 1e3, "us"},
		"engine.get_p99_us":           {float64(quantile(gets, 0.99)) / 1e3, "us"},
		"engine.self_s":               {secs(layerSelf["engine"]), "s"},
		"lsm.flushes":                 {float64(c.io.lsmFlushes), "count"},
		"lsm.compactions":             {float64(c.io.lsmCompactions), "count"},
		"lsm.compaction_write_mb":     {float64(c.io.lsmCompactionWriteB) / (1 << 20), "MB"},
		"btree.cache_misses":          {float64(c.io.btreeCacheMisses), "count"},
		"btree.checkpoints":           {float64(c.io.btreeCheckpoints), "count"},
		"betree.buffer_flushes":       {float64(c.io.betreeBufferFlushes), "count"},
		"betree.checkpoints":          {float64(c.io.betreeCheckpoints), "count"},
		"device.read_calls":           {float64(count[kDevRead]), "count"},
		"device.write_calls":          {float64(count[kDevWrite]), "count"},
		"device.discard_calls":        {float64(count[kDevDiscard]), "count"},
		"device.read_s":               {secs(total[kDevRead]), "s"},
		"device.write_s":              {secs(total[kDevWrite]), "s"},
		"flash.host_pages":            {float64(c.flash.HostPagesWritten), "count"},
		"flash.flash_pages":           {float64(c.flash.FlashPagesWritten), "count"},
		"flash.relocations":           {float64(c.flash.Relocations), "count"},
		"flash.erases":                {float64(c.flash.Erases), "count"},
		"workload.next_s":             {secs(total[kWorkloadNext]), "s"},
		"core.self_s":                 {wall.Seconds() - secs(rootTotal), "s"},
		"trace.overhead_frac":         {1 - ratio(tracedKops, untracedKops), "frac"},
	}
}

// writeSpans writes one span per line: index, parent, layer, kind,
// start and end in nanoseconds since the trace began.
func writeSpans(path string, spans []span) error {
	var b bytes.Buffer
	b.WriteString("index\tparent\tlayer\tkind\tstart_ns\tend_ns\n")
	for i, s := range spans {
		fmt.Fprintf(&b, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.kind.layer(), s.kind, s.start, s.end)
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func printTable(w io.Writer, wl workloadDef, spec core.Spec, chk *checker, table map[string]metric) {
	fmt.Fprintf(w, "workload %s (seed %d): %s\n", wl.name, spec.Seed, wl.why)
	if chk.want != nil {
		fp := *chk.want
		fmt.Fprintf(w, "fingerprint: virt.ops=%d virt.kops_scaled=%v virt.waa=%v virt.wad=%v virt.p99_us=%v\n",
			fp.Ops, fp.KOpsScaled, fp.WAA, fp.WAD, fp.P99us)
	}
	for _, p := range chk.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	fmt.Fprintf(w, "%-30s %14.6g %s\n", "failed_ops_frac", ratio(float64(chk.failed), float64(max(chk.attempted, 1))), "frac")
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-30s %14.6g %s\n", n, table[n].Value, table[n].Unit)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of v (0 when empty).
func quantile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}
