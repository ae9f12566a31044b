package main

import (
	"math/rand"
	"sort"
	"time"
)

// kind classifies an operation for latency reporting.
type kind int

const (
	kRead   kind = iota // point read: GetAttr/Members, live or snapshot
	kWrite              // acknowledged SetAttr outside a transaction
	kTxn                // one design transaction, Begin to Commit
	kStruct             // structural op: new+bind, rebind, BindResolved, delete
	kQuery              // indexed Query
	kExpand             // Expand/VisibleComponents of one composite
	kSnap               // snapshot open, read, release
	kPing               // wire Ping probe
	nKinds
)

var kindNames = [nKinds]string{"read", "write", "txn", "struct", "query", "expand", "snap", "ping"}

// reservoirCap bounds the latency samples one client keeps per kind. A
// run on the in-memory workload completes millions of reads; a uniform
// reservoir of this size still leaves more than a thousand samples
// beyond the 99th percentile while keeping the recorder's memory flat.
const reservoirCap = 1 << 17

// recorder collects one client's latency samples and outcome counts.
// Each client owns its recorder, so recording takes no lock; recorders
// are merged after the clients have stopped.
type recorder struct {
	rng     *rand.Rand // reservoir replacement; separate from the op stream
	samples [nKinds][]int64
	seen    [nKinds]int64
	ops     int64 // operations attempted
	failed  int64 // operations that returned an unexpected error
	errs    []string
	windows []int64 // operations completed in each throughput window
}

// window is the interval over which throughput is counted; ops_per_s is
// the median of the per-window rates, so a short burst of noise from
// the host moves one window rather than the whole result.
const window = time.Second

// tick counts an operation completing at offset t into the phase.
func (r *recorder) tick(t time.Duration) {
	w := int(t / window)
	for len(r.windows) <= w {
		r.windows = append(r.windows, 0)
	}
	r.windows[w]++
}

func newRecorder(seed int64) *recorder {
	return &recorder{rng: rand.New(rand.NewSource(seed))}
}

// add records one completed operation's latency (Algorithm R).
func (r *recorder) add(k kind, d time.Duration) {
	r.seen[k]++
	s := r.samples[k]
	if len(s) < reservoirCap {
		r.samples[k] = append(s, int64(d))
		return
	}
	if j := r.rng.Int63n(r.seen[k]); j < reservoirCap {
		s[j] = int64(d)
	}
}

// fail counts a failed operation and keeps the first few messages.
func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// merged is the union of several recorders, with sorted samples.
type merged struct {
	samples [nKinds][]int64
	seen    [nKinds]int64
	ops     int64
	failed  int64
	errs    []string
}

func merge(rs ...*recorder) *merged {
	m := &merged{}
	for _, r := range rs {
		for k := range r.samples {
			m.samples[k] = append(m.samples[k], r.samples[k]...)
			m.seen[k] += r.seen[k]
		}
		m.ops += r.ops
		m.failed += r.failed
		m.errs = append(m.errs, r.errs...)
	}
	for k := range m.samples {
		sortInt64(m.samples[k])
	}
	return m
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// quantile estimates the q-quantile of sorted samples as the mean of the
// samples ranked within ±0.1% of q. Averaging a narrow rank window keeps
// the estimate's resolution finer than the clock's, so runs whose
// distributions differ slightly do not report identical integers.
func quantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	lo := int((q - 0.001) * float64(n))
	hi := int((q+0.001)*float64(n)) + 1
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		lo = hi - 1
	}
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo)
}

// p returns the q-quantile of a kind's latency in microseconds.
func (m *merged) p(k kind, q float64) float64 { return quantile(m.samples[k], q) / 1e3 }

// tailOK reports whether a kind has at least ten samples beyond the
// 99th percentile.
func (m *merged) tailOK(k kind) bool { return len(m.samples[k]) >= 1000 }
