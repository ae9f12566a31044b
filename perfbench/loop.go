package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"cadcam"
	"cadcam/internal/serve"
)

// nClients is the closed loop's client count. CAD tool sessions each
// wait for their reply, so the loop is closed; two clients match the
// two cores of the machine the benchmark was tuned on, and let
// transactions wait on each other's locks.
const nClients = 2

// client is one closed-loop session. It owns its random stream, its
// recorder and its tracer, so the hot path shares nothing.
type client struct {
	id     int
	rng    *rand.Rand // the operation stream: same seed, same choices
	trng   *rand.Rand // trace sampling; apart from rng so tracing leaves the stream as it is
	rec    *recorder
	tracer *tracer // the run's tracer; nil in an untraced run
	tr     *tracer // the current operation's tracer; nil when untraced
	ptr    *tracer // the phase's tracer; nil in an untraced phase
	nops   int64
	acc    layerAcc
}

// layerAcc accumulates the per-layer quantities a traced operation
// measures itself (not derivable from spans or counters).
type layerAcc struct {
	txns, aborts     int64
	locks, lockTxns  int64
	expandNodes, exp int64
	candidates, rows int64
}

func (a *layerAcc) add(b layerAcc) {
	a.txns += b.txns
	a.aborts += b.aborts
	a.locks += b.locks
	a.lockTxns += b.lockTxns
	a.expandNodes += b.expandNodes
	a.exp += b.exp
	a.candidates += b.candidates
	a.rows += b.rows
}

func newClients(seed int64) []*client {
	cs := make([]*client, nClients)
	for i := range cs {
		cs[i] = &client{id: i, rng: rand.New(rand.NewSource(seed*1000 + int64(i) + 1)),
			trng: rand.New(rand.NewSource(-seed*1000 - int64(i) - 1))}
	}
	return cs
}

// phase is the measured outcome of one or more closed-loop intervals.
type phase struct {
	elapsed time.Duration
	recs    []*recorder
	rates   []float64 // throughput of every complete window
	acc     layerAcc
}

func (p *phase) add(q phase) {
	p.elapsed += q.elapsed
	p.recs = append(p.recs, q.recs...)
	p.rates = append(p.rates, q.rates...)
	p.acc.add(q.acc)
}

func (p phase) ops() (ops, failed int64) {
	for _, r := range p.recs {
		ops += r.ops
		failed += r.failed
	}
	return ops, failed
}

// completed is the number of operations that succeeded.
func (p phase) completed() int64 {
	ops, failed := p.ops()
	return ops - failed
}

// opsPerS is the median throughput of completed operations over the
// phase's complete windows, or the mean when the phase is shorter than
// three windows. A failed operation never counts as throughput.
func (p phase) opsPerS() float64 {
	if len(p.rates) >= 3 {
		return medianFloat(p.rates)
	}
	return ratio(float64(p.completed()), p.elapsed.Seconds())
}

// runPhase drives every client's closed loop for d: each client issues
// its next operation only when the previous one has completed. With
// traceEvery > 0 one operation in traceEvery, drawn at random, records
// spans in the client's tracer: a draw rather than a count, so that no
// operation a workload issues on a fixed cadence escapes the sample.
// The loop stops early once an oracle has tripped.
func runPhase(cs []*client, d time.Duration, traceEvery int, o *oracle, op func(*client) error) phase {
	epoch := time.Now()
	deadline := epoch.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		c.rec = newRecorder(c.rng.Int63())
		c.acc = layerAcc{}
		c.ptr = nil
		if traceEvery > 0 {
			c.ptr = c.tracer
		}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !o.tripped() && time.Now().Before(deadline) {
				c.tr = nil
				if c.ptr != nil && c.trng.Intn(traceEvery) == 0 {
					c.tr = c.ptr
				}
				c.nops++
				c.rec.ops++
				if err := op(c); err != nil {
					c.rec.fail(err)
					continue
				}
				c.rec.tick(time.Since(epoch))
			}
		}(c)
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(epoch)}
	full := int(ph.elapsed / window)
	counts := make([]int64, full)
	for _, c := range cs {
		ph.recs = append(ph.recs, c.rec)
		ph.acc.add(c.acc)
		for w := 0; w < full && w < len(c.rec.windows); w++ {
			counts[w] += c.rec.windows[w]
		}
	}
	for _, n := range counts {
		ph.rates = append(ph.rates, float64(n)/window.Seconds())
	}
	return ph
}

// layerFromAcc fills the per-layer metrics a traced phase accumulated in
// its clients.
func layerFromAcc(l map[string]metric, a layerAcc) {
	setLayer(l, "txn.locks_per_txn", ratio(float64(a.locks), float64(a.lockTxns)))
	setLayer(l, "txn.abort_ratio", ratio(float64(a.aborts), float64(a.txns)))
	setLayer(l, "inherit.expansion_size", ratio(float64(a.expandNodes), float64(a.exp)))
	setLayer(l, "query.candidates_per_row", ratio(float64(a.candidates), float64(a.rows)))
}

// setupRepeats is how often a run builds its dataset; setup_s is the
// median, and only the last build is measured.
const setupRepeats = 7

// medianSetup runs build setupRepeats times, releasing every build but
// the last, and returns the last build with the median build time. Each
// build starts after a full collection, so it does not pay for the
// garbage of the one before.
func medianSetup[T any](build func(i int) (T, error), release func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			release(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build(i)
		if err != nil {
			return last, 0, err
		}
		times = append(times, elapsedSince(t0))
		last = v
	}
	return last, medianFloat(times), nil
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// measured holds the phases of one run: the untraced phase that gives
// the end-to-end metrics and, in a traced run, the traced phase, any
// extra traced phase a workload adds, and the counters around them.
type measured struct {
	un, tr, extra phase
	tracers       []*tracer
	before, after counters
	queuedMax     int // largest lock-table queue sampled while tracing
}

// traceSlices is how many untraced and traced slices a traced run
// alternates. Alternating lets both see the database at the same sizes,
// so their throughput ratio measures the tracing overhead rather than
// the database's growth.
const traceSlices = 4

// measurePhases runs the closed loop for the run's duration. A traced
// run spends half of it untraced and half traced, in alternating slices.
func measurePhases(cfg runConfig, cs []*client, o *oracle, traceEvery int, db *cadcam.Database, srv *serve.Server, op func(*client) error) measured {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return measured{un: runPhase(cs, d, 0, o, op)}
	}
	var m measured
	epoch := time.Now()
	for _, c := range cs {
		c.tracer = newTracer(epoch, c.id)
		m.tracers = append(m.tracers, c.tracer)
	}
	m.before = snapCounters(db, srv)
	stop := make(chan struct{})
	sampled := make(chan int)
	go func() { sampled <- sampleQueued(db, stop) }()
	slice := d / (2 * traceSlices)
	for i := 0; i < traceSlices; i++ {
		m.un.add(runPhase(cs, slice, 0, o, op))
		m.tr.add(runPhase(cs, slice, traceEvery, o, op))
	}
	close(stop)
	m.queuedMax = <-sampled
	m.after = snapCounters(db, srv)
	return m
}

// sampleQueued polls the lock table every millisecond until stop closes
// and returns the largest queue it saw.
func sampleQueued(db *cadcam.Database, stop <-chan struct{}) int {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	max := 0
	for {
		select {
		case <-stop:
			return max
		case <-tick.C:
			if q := db.Txns().LockTableStats().Queued; q > max {
				max = q
			}
		}
	}
}

// newResult fills what every workload reports: the end-to-end metrics of
// the untraced phase with set-up time and heap, and in a traced run the
// per-layer metrics of the traced phases. The trace file goes to dir.
func newResult(cfg runConfig, m measured, setupS, heapMB float64, o *oracle) (*result, map[string]*spanStats, error) {
	all := m.un
	all.add(m.tr)
	all.add(m.extra)
	attempted, failed := all.ops()
	un := merge(m.un.recs...)
	res := &result{
		e2e:       e2eFrom(un, m.un.opsPerS()),
		samples:   sampleCounts(un),
		attempted: attempted,
		failed:    failed,
		oracle:    o,
		notes:     map[string]any{},
	}
	for _, r := range all.recs {
		res.errs = append(res.errs, r.errs...)
	}
	res.notes["ops_per_s_windows"] = m.un.rates
	res.e2e["setup_s"] = metric{setupS, "s"}
	res.e2e["heap_mb"] = metric{heapMB, "MB"}
	if !cfg.trace {
		return res, nil, nil
	}
	st := analyze(m.tracers)
	res.layer = newLayerMap()
	layerFromSpans(res.layer, st)
	traced, untraced := m.tr.completed(), m.un.completed()
	layerFromCounters(res.layer, m.before, m.after, traced+untraced)
	acc := m.tr.acc
	acc.add(m.extra.acc)
	layerFromAcc(res.layer, acc)
	setLayer(res.layer, "txn.lock_queued_max", float64(m.queuedMax))
	untracedRate := ratio(float64(untraced), m.un.elapsed.Seconds())
	tracedRate := ratio(float64(traced), m.tr.elapsed.Seconds())
	setLayer(res.layer, "bench.trace_overhead", 1-ratio(tracedRate, untracedRate))
	res.selfUs = selfTable(st)
	path, err := writeTrace(cfg.dir, cfg.workload, m.tracers)
	if err != nil {
		return nil, nil, err
	}
	res.notes["trace_file"] = path
	return res, st, nil
}

// heapMB returns the live heap after a full collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
