package main

import (
	"fmt"
	"sync"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// engineKinds are the span kinds one wrapped engine records.
type engineKinds struct{ put, get, other kind }

var (
	memberKinds  = engineKinds{kEnginePut, kEngineGet, kEngineOther}
	replicaKinds = engineKinds{kReplica, kReplica, kReplica}
)

// spanEngine is a pass-through engine.Engine that records a span around
// every call and reports each FlushAll return to flushed. It forwards
// the optional Delete and Scan surfaces; wrapEngine adds group commit
// when the wrapped engine has it, so the store batches journal syncs
// exactly as it would unwrapped.
type spanEngine struct {
	inner   engine.Engine
	kinds   engineKinds
	rec     *recorder
	flushed func()
}

// gcEngine is a spanEngine over an engine.GroupCommitter.
type gcEngine struct {
	*spanEngine
	gc engine.GroupCommitter
}

func wrapEngine(inner engine.Engine, kinds engineKinds, rec *recorder, flushed func()) engine.Engine {
	e := &spanEngine{inner: inner, kinds: kinds, rec: rec, flushed: flushed}
	if gc, ok := inner.(engine.GroupCommitter); ok {
		return &gcEngine{spanEngine: e, gc: gc}
	}
	return e
}

func (e *spanEngine) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	defer e.rec.end(e.rec.begin(e.kinds.put))
	return e.inner.Put(now, key, value, valueLen)
}

func (e *spanEngine) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	defer e.rec.end(e.rec.begin(e.kinds.get))
	return e.inner.Get(now, key)
}

func (e *spanEngine) FlushAll(now sim.Duration) (sim.Duration, error) {
	defer e.rec.end(e.rec.begin(e.kinds.other))
	done, err := e.inner.FlushAll(now)
	if e.flushed != nil {
		e.flushed()
	}
	return done, err
}

func (e *spanEngine) Quiesce(now sim.Duration) sim.Duration {
	defer e.rec.end(e.rec.begin(e.kinds.other))
	return e.inner.Quiesce(now)
}

func (e *spanEngine) Close(now sim.Duration) (sim.Duration, error) {
	defer e.rec.end(e.rec.begin(e.kinds.other))
	return e.inner.Close(now)
}

func (e *spanEngine) Delete(now sim.Duration, key []byte) (sim.Duration, error) {
	del, ok := e.inner.(store.Deleter)
	if !ok {
		return now, fmt.Errorf("perfbench: engine %T does not support Delete", e.inner)
	}
	defer e.rec.end(e.rec.begin(e.kinds.other))
	return del.Delete(now, key)
}

func (e *spanEngine) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	sc, ok := e.inner.(store.Scanner)
	if !ok {
		return now, nil, fmt.Errorf("perfbench: engine %T does not support Scan", e.inner)
	}
	defer e.rec.end(e.rec.begin(e.kinds.other))
	return sc.Scan(now, start, limit)
}

func (e *spanEngine) Stats() kv.EngineStats { return e.inner.Stats() }
func (e *spanEngine) DiskUsageBytes() int64 { return e.inner.DiskUsageBytes() }

func (e *gcEngine) BeginGroupCommit() {
	defer e.rec.end(e.rec.begin(e.kinds.other))
	e.gc.BeginGroupCommit()
}

func (e *gcEngine) EndGroupCommit(now sim.Duration) (sim.Duration, error) {
	defer e.rec.end(e.rec.begin(e.kinds.other))
	return e.gc.EndGroupCommit(now)
}

// spanDev is a pass-through blockdev.Dev recording a span around every
// I/O call the filesystem makes. Simulated devices have no write-back
// cache, so it does not forward blockdev.Barrier (extfs then treats a
// barrier as a no-op, as it does for the bare device).
type spanDev struct {
	blockdev.Dev
	rec *recorder
}

func (d *spanDev) WriteAt(now sim.Duration, off int64, n int, data []byte) sim.Duration {
	defer d.rec.end(d.rec.begin(kDevWrite))
	return d.Dev.WriteAt(now, off, n, data)
}

func (d *spanDev) ReadAt(now sim.Duration, off int64, n int, buf []byte) sim.Duration {
	defer d.rec.end(d.rec.begin(kDevRead))
	return d.Dev.ReadAt(now, off, n, buf)
}

func (d *spanDev) WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	defer d.rec.end(d.rec.begin(kDevWrite))
	return d.Dev.WriteErr(now, off, n, data)
}

func (d *spanDev) ReadErr(now sim.Duration, off int64, n int, buf []byte) (sim.Duration, error) {
	defer d.rec.end(d.rec.begin(kDevRead))
	return d.Dev.ReadErr(now, off, n, buf)
}

func (d *spanDev) Discard(off int64, n int) {
	defer d.rec.end(d.rec.begin(kDevDiscard))
	d.Dev.Discard(off, n)
}

func (d *spanDev) SyncErr() error {
	defer d.rec.end(d.rec.begin(kDevSync))
	return d.Dev.SyncErr()
}

// ContentEnabled forwards the content-store probe the write-ahead log
// makes on its device.
func (d *spanDev) ContentEnabled() bool {
	c, ok := d.Dev.(interface{ ContentEnabled() bool })
	return ok && c.ContentEnabled()
}

// passDriver is a registered engine driver that opens its base driver's
// engine behind a spanEngine without a recorder. core.Run drives it like
// any engine; the only thing it adds is the wall time at which the last
// engine FlushAll returned, which ends the cell's set-up (device build,
// preconditioning, load and load flush). Each repetition registers its
// own driver, so no state is shared between repetitions.
type passDriver struct {
	base engine.Driver
	name string

	mu       sync.Mutex
	setupEnd time.Time
}

func newPassDriver(base string) (*passDriver, error) {
	drv, err := engine.Lookup(base)
	if err != nil {
		return nil, err
	}
	d := &passDriver{base: drv}
	d.name = fmt.Sprintf("perfbench-%s-%p", base, d)
	engine.Register(d)
	return d, nil
}

func (d *passDriver) Name() string { return d.name }

func (d *passDriver) Configure(s engine.Sizing) engine.Config {
	return passConfig{Config: d.base.Configure(s), d: d}
}

// flushed records a FlushAll return; shard workers call it concurrently.
func (d *passDriver) flushed() {
	t := time.Now()
	d.mu.Lock()
	if t.After(d.setupEnd) {
		d.setupEnd = t
	}
	d.mu.Unlock()
}

// SetupEnd returns when the last engine FlushAll returned.
func (d *passDriver) SetupEnd() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.setupEnd
}

type passConfig struct {
	engine.Config
	d *passDriver
}

func (c passConfig) Open(env engine.Env) (engine.Engine, error) {
	e, err := c.Config.Open(env)
	if err != nil {
		return nil, err
	}
	return wrapEngine(e, memberKinds, nil, c.d.flushed), nil
}
