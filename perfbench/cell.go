package main

import (
	"errors"
	"fmt"
	"time"

	"ptsbench/internal/betree"
	"ptsbench/internal/blockdev"
	"ptsbench/internal/btree"
	"ptsbench/internal/core"
	"ptsbench/internal/engine"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/lsm"
	"ptsbench/internal/replica"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
	"ptsbench/internal/workload"
)

// cell is one experiment cell run by runCell: its virtual result, the
// wall-clock phase boundaries and the layer counters of its measured
// phase.
type cell struct {
	res      *core.Result
	setupEnd time.Time // load-phase flush returned
	end      time.Time // measured phase ended

	engines []engine.Engine // unwrapped engine of every stack
	ssds    []*flash.Device // flash device of every stack
	io      counters        // measured-phase engine I/O counters
	flash   flash.Stats     // measured-phase flash counters
}

// counters are the engines' public IO() counts the benchmark reports.
type counters struct {
	lsmFlushes, lsmCompactions, lsmCompactionWriteB int64
	btreeCacheMisses, btreeCheckpoints              int64
	betreeBufferFlushes, betreeCheckpoints          int64
}

func (c counters) sub(o counters) counters {
	return counters{
		lsmFlushes:          c.lsmFlushes - o.lsmFlushes,
		lsmCompactions:      c.lsmCompactions - o.lsmCompactions,
		lsmCompactionWriteB: c.lsmCompactionWriteB - o.lsmCompactionWriteB,
		btreeCacheMisses:    c.btreeCacheMisses - o.btreeCacheMisses,
		btreeCheckpoints:    c.btreeCheckpoints - o.btreeCheckpoints,
		betreeBufferFlushes: c.betreeBufferFlushes - o.betreeBufferFlushes,
		betreeCheckpoints:   c.betreeCheckpoints - o.betreeCheckpoints,
	}
}

func engineCounters(engines []engine.Engine) counters {
	var c counters
	for _, e := range engines {
		switch e := e.(type) {
		case *lsm.DB:
			io := e.IO()
			c.lsmFlushes += io.Flushes
			c.lsmCompactions += io.Compactions
			c.lsmCompactionWriteB += io.CompactionWriteB
		case *btree.Tree:
			io := e.IO()
			c.btreeCacheMisses += io.CacheMisses
			c.btreeCheckpoints += io.Checkpoints
		case *betree.Tree:
			io := e.IO()
			c.betreeBufferFlushes += io.BufferFlushes
			c.betreeCheckpoints += io.Checkpoints
		}
	}
	return c
}

func flashStats(ssds []*flash.Device) flash.Stats {
	var s flash.Stats
	for _, d := range ssds {
		s = s.Add(d.Stats())
	}
	return s
}

// runCell runs one cell the way core.Run does — the same public
// constructors, RNG streams, load, collector and closed-loop epochs —
// but builds the stack itself so that every layer boundary can be
// interposed: tr (nil for none) records spans around the store calls,
// workload draws, replica-group calls, engine calls and the
// filesystem's device calls. It covers what the benchmark's
// workloads use: the simulated backend at queue depth 1. The benchmark
// checks that its virtual result matches core.Run's (the fingerprint).
func runCell(spec core.Spec, tr *tracer) (*cell, error) {
	c := &cell{}
	spec, err := spec.Validate()
	if err != nil {
		return nil, err
	}
	if spec.Backend != "sim" || spec.QueueDepth != 1 {
		return nil, errors.New("perfbench: runCell covers the simulated backend at queue depth 1")
	}
	drv, err := engine.Lookup(string(spec.Engine))
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(spec.Seed)
	scaledCapacity := spec.Device.CapacityBytes / spec.Scale
	scaledPPB := spec.Device.PagesPerBlock / int(spec.Scale)
	if scaledPPB < 64 {
		scaledPPB = 64
	}
	datasetBytes := int64(float64(spec.Device.CapacityBytes)*spec.DatasetFraction) / spec.Scale
	numKeys := uint64(datasetBytes / int64(spec.ValueBytes))
	if numKeys == 0 {
		return nil, errors.New("perfbench: dataset too small for value size")
	}

	openStack := func(stackRNG *sim.RNG, rec *recorder) (engine.Engine, blockdev.Host, error) {
		ssd, err := flash.NewDevice(flash.Config{
			LogicalBytes:  scaledCapacity / int64(spec.Shards),
			PageSize:      spec.Device.PageSize,
			PagesPerBlock: scaledPPB,
			Profile:       spec.Device.Profile.Scaled(spec.Scale),
		})
		if err != nil {
			return nil, nil, fmt.Errorf("building device: %w", err)
		}
		bdev := blockdev.New(ssd)
		partPages := int64(float64(bdev.Pages()) * spec.PartitionFraction)
		var target blockdev.Dev = bdev
		if partPages < bdev.Pages() {
			if target, err = bdev.Partition(0, partPages); err != nil {
				return nil, nil, err
			}
		}
		if spec.Initial == core.Preconditioned {
			ssd.PreconditionRange(stackRNG.Split(), 0, partPages, 2)
		}
		if rec != nil {
			target = &spanDev{Dev: target, rec: rec}
		}
		fs, err := extfs.Mount(target, extfs.Options{})
		if err != nil {
			return nil, nil, err
		}
		cfg := drv.Configure(engine.Sizing{
			DatasetBytes: datasetBytes / int64(spec.Shards),
			Scale:        spec.Scale,
			QueueDepth:   spec.QueueDepth,
		})
		if err := cfg.ApplyTunables(spec.Tunables); err != nil {
			return nil, nil, err
		}
		eng, err := cfg.Open(engine.Env{FS: fs, RNG: stackRNG})
		if err != nil {
			return nil, nil, err
		}
		c.engines = append(c.engines, eng)
		c.ssds = append(c.ssds, ssd)
		if rec != nil {
			eng = wrapEngine(eng, memberKinds, rec, nil)
		}
		return eng, bdev, nil
	}

	st, err := store.New(spec.Shards, func(i int) (store.Stack, error) {
		rec := tr.shard()
		shardRNG := rng
		if i > 0 {
			shardRNG = sim.NewRNG(shardSeed(spec.Seed, i))
		}
		if spec.Replicas <= 1 {
			eng, host, err := openStack(shardRNG, rec)
			if err != nil {
				return store.Stack{}, err
			}
			return store.Stack{Engine: eng, Dev: host}, nil
		}
		mode, err := replica.ParseMode(spec.ReplMode)
		if err != nil {
			return store.Stack{}, err
		}
		members := make([]replica.Member, spec.Replicas)
		devs := make([]blockdev.Host, spec.Replicas)
		for r := 0; r < spec.Replicas; r++ {
			stackRNG := shardRNG
			if r > 0 {
				stackRNG = sim.NewRNG(replicaSeed(spec.Seed, i, r))
			}
			eng, host, err := openStack(stackRNG, rec)
			if err != nil {
				return store.Stack{}, err
			}
			members[r] = replica.Member{Engine: eng}
			devs[r] = host
		}
		g, err := replica.New(mode, members)
		if err != nil {
			return store.Stack{}, err
		}
		var eng engine.Engine = g
		if rec != nil {
			eng = wrapEngine(g, replicaKinds, rec, nil)
		}
		return store.Stack{Engine: eng, Dev: devs[0], Devs: devs}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("perfbench: %w", err)
	}
	defer st.Close()

	res := &core.Result{Spec: spec, DatasetBytes: datasetBytes, NumKeys: numKeys}
	c.res = res
	rec := tr.client()

	i := rec.begin(kStoreLoad)
	now, err := st.Load(spec.ValueBytes, numKeys)
	rec.end(i)
	if err == nil {
		i = rec.begin(kStoreFlush)
		now, err = st.FlushAll(0)
		rec.end(i)
	}
	c.setupEnd = time.Now()
	if err != nil {
		if errors.Is(err, extfs.ErrNoSpace) {
			res.OutOfSpace = true
			res.LoadDuration = now
			return c, nil
		}
		return nil, fmt.Errorf("perfbench: load: %w", err)
	}
	res.LoadDuration = now
	devs := st.Devs()
	var loadDev blockdev.Counters
	for _, d := range devs {
		loadDev = loadDev.Add(d.Counters())
	}
	loadSSD := flashStats(c.ssds)
	res.LoadHostBytes = loadDev.BytesWritten
	res.LoadFlashPages = loadSSD.FlashPagesWritten
	res.LoadWAD = loadSSD.WAD()
	for _, d := range devs {
		d.ResetInstrumentation()
	}
	loadIO := engineCounters(c.engines)

	collector := core.NewCollector(devs, st, now, spec.SampleEvery)
	baseSeed := rng.Uint64()
	gens, err := workload.NewClientGenerators(workload.Spec{
		NumKeys:      numKeys,
		ValueBytes:   spec.ValueBytes,
		ReadFraction: spec.ReadFraction,
		Dist:         spec.Dist,
		ZipfTheta:    spec.ZipfTheta,
		Skew:         spec.Skew,
	}, baseSeed, spec.Clients)
	if err != nil {
		return nil, err
	}

	// Closed-loop epochs at queue depth 1: every live client submits
	// one operation, the store pumps all shards, and each client's
	// clock advances to its completion.
	deadline := now + spec.Duration
	lat := core.NewLatencyHistogram()
	type client struct {
		now       sim.Duration
		key       []byte
		submitted bool
		done      bool
	}
	clients := make([]client, spec.Clients)
	for id := range clients {
		clients[id] = client{now: now, key: make([]byte, kv.KeySize)}
	}
	var runErr error
	active := len(clients)
	for active > 0 && runErr == nil {
		submitted := false
		for id := range clients {
			cl := &clients[id]
			if cl.done {
				continue
			}
			if cl.now >= deadline {
				cl.done = true
				active--
				continue
			}
			i := rec.begin(kWorkloadNext)
			op := gens[id].Next()
			rec.end(i)
			kv.AppendKey(cl.key, op.KeyID)
			sop := store.Op{Client: id, Submit: cl.now, KeyID: op.KeyID, Key: cl.key}
			if op.Kind == workload.OpRead {
				sop.Kind = store.Get
			} else {
				sop.Kind = store.Put
				sop.ValueLen = spec.ValueBytes
			}
			i = rec.begin(kStoreSubmit)
			st.Submit(sop)
			rec.end(i)
			cl.submitted = true
			submitted = true
		}
		if !submitted {
			break
		}
		i := rec.begin(kStorePump)
		comps := st.Pump()
		rec.end(i)
		for k := range comps {
			comp := &comps[k]
			cl := &clients[comp.Client]
			cl.now = comp.Done
			if comp.Err != nil {
				if runErr == nil {
					runErr = comp.Err
				}
				continue
			}
			lat.Record((comp.Done - comp.Submit) / sim.Duration(spec.Scale))
		}
		for id := range clients {
			cl := &clients[id]
			if !cl.submitted {
				continue
			}
			cl.submitted = false
			if runErr == nil && collector.Due(cl.now) {
				collector.Record(cl.now)
			}
		}
	}
	c.end = time.Now()
	c.io = engineCounters(c.engines).sub(loadIO)
	c.flash = flashStats(c.ssds).Sub(loadSSD)
	if runErr != nil {
		if !errors.Is(runErr, extfs.ErrNoSpace) {
			return nil, fmt.Errorf("perfbench: workload: %w", runErr)
		}
		res.OutOfSpace = true
	}
	var end sim.Duration
	for _, cl := range clients {
		if cl.now > end {
			end = cl.now
		}
	}
	collector.Record(end)
	res.Latency = lat.Percentiles()
	res.Series = collector.Series()
	res.Steady = res.Series.TailStats(0.25)
	res.ScaledKOps = res.Steady.ThroughputKOps * float64(spec.Scale)
	res.SpaceAmp = core.SpaceAmplification(res.Steady.DiskUsedBytes, datasetBytes)
	res.DiskUtilPct = 100 * float64(res.Steady.DiskUsedBytes) / float64(scaledCapacity)
	res.LBACDF = blockdev.CombinedWriteCDF(devs, 100)
	res.FracLBAs = blockdev.CombinedFractionLBAsWritten(devs)
	var measDev blockdev.Counters
	for _, d := range devs {
		measDev = measDev.Add(d.Counters())
	}
	res.DiscardOps = measDev.DiscardOps
	res.PagesDiscarded = measDev.PagesDiscarded
	return c, nil
}

// shardSeed and replicaSeed derive the per-shard and per-replica RNG
// streams exactly as core.Run does.
func shardSeed(seed uint64, shard int) uint64 {
	z := uint64(shard) + 0x6A09E667F3BCC909
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return seed ^ z ^ (z >> 31)
}

func replicaSeed(seed uint64, shard, rep int) uint64 {
	z := uint64(shard)<<20 + uint64(rep) + 0xBB67AE8584CAA73B
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return seed ^ z ^ (z >> 31)
}
