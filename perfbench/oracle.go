package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cadcam"
	"cadcam/internal/object"
	"cadcam/internal/txn"
)

// Correctness oracles. Each check is a plain function of what the engine
// answered, so a test can plant a wrong answer and see the oracle trip;
// the oracle type counts checks and keeps the first failures. A tripped
// oracle stops the closed loop and makes the run report correct=false.

// oracleID names one oracle.
type oracleID int

const (
	orVisible oracleID = iota // a transmitter write reads back through its inheritor
	orOneWay                  // a write to an inherited attribute is refused
	orQuery                   // planned query results equal query.Naive
	orAcks                    // acknowledged writes read back, before and after reopen
	orDrain                   // no sessions, pins or locks are left after a drain
	nOracles
)

var oracleNames = [nOracles]string{"visible", "one_way", "query_naive", "acks", "drain"}

type oracle struct {
	checks [nOracles]atomic.Int64
	bad    atomic.Bool
	mu     sync.Mutex
	msgs   []string
}

// check counts one check of oracle id and records err as a violation.
func (o *oracle) check(id oracleID, err error) {
	o.checks[id].Add(1)
	if err == nil {
		return
	}
	o.bad.Store(true)
	o.mu.Lock()
	if len(o.msgs) < 10 {
		o.msgs = append(o.msgs, oracleNames[id]+": "+err.Error())
	}
	o.mu.Unlock()
}

func (o *oracle) tripped() bool { return o.bad.Load() }
func (o *oracle) ok() bool      { return !o.bad.Load() }

func (o *oracle) report() map[string]any {
	counts := map[string]int64{}
	for i := range o.checks {
		if n := o.checks[i].Load(); n > 0 {
			counts[oracleNames[i]] = n
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return map[string]any{"checks": counts, "failures": append([]string(nil), o.msgs...)}
}

// checkVisible: view-like inheritance (§2) means a transmitter write is
// visible through every inheritor as soon as it is acknowledged.
func checkVisible(want, got cadcam.Value, err error) error {
	if err != nil {
		return fmt.Errorf("inheritor read failed: %w", err)
	}
	if !want.Equal(got) {
		return fmt.Errorf("inheritor reads %v after the transmitter acknowledged %v", got, want)
	}
	return nil
}

// checkRefused: inherited data is writable only at the transmitter, so a
// write through the inheritor must fail with the write-protection error.
func checkRefused(err error) error {
	if err == nil {
		return errors.New("write to an inherited attribute was accepted")
	}
	if !errors.Is(err, object.ErrInheritedAttribute) {
		return fmt.Errorf("write to an inherited attribute failed with %v, not the write protection", err)
	}
	return nil
}

// checkRows compares a planned query's rows with the naive evaluation.
func checkRows(got, want []cadcam.Surrogate) error {
	g := append([]cadcam.Surrogate(nil), got...)
	w := append([]cadcam.Surrogate(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	if len(g) != len(w) {
		return fmt.Errorf("planned query returned %d rows, naive evaluation %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("planned query row %d is %s, naive evaluation has %s", i, g[i], w[i])
		}
	}
	return nil
}

// checkDrained: a gracefully drained server leaves no session, snapshot
// pin or lock-table entry behind.
func checkDrained(sessions int, pins int64, lt txn.LockTableStats) error {
	if sessions != 0 || pins != 0 || lt.Objects != 0 || lt.Granted != 0 || lt.Queued != 0 || lt.Waiters != 0 {
		return fmt.Errorf("after drain: %d sessions, %d pins, lock table %+v", sessions, pins, lt)
	}
	return nil
}

// attrKey addresses one attribute of one object.
type attrKey struct {
	sur  cadcam.Surrogate
	attr string
}

// ackLog records the last acknowledged value of every attribute the
// workload wrote, and which objects must or must not exist.
type ackLog struct {
	mu      sync.Mutex
	vals    map[attrKey]cadcam.Value
	live    map[cadcam.Surrogate]bool // true: acked created; false: acked deleted
	bindsTo map[attrKey]cadcam.Surrogate
}

func newAckLog() *ackLog {
	return &ackLog{vals: map[attrKey]cadcam.Value{}, live: map[cadcam.Surrogate]bool{},
		bindsTo: map[attrKey]cadcam.Surrogate{}}
}

func (a *ackLog) set(sur cadcam.Surrogate, attr string, v cadcam.Value) {
	a.mu.Lock()
	a.vals[attrKey{sur, attr}] = v
	a.mu.Unlock()
}

func (a *ackLog) exists(sur cadcam.Surrogate, live bool) {
	a.mu.Lock()
	a.live[sur] = live
	a.mu.Unlock()
}

func (a *ackLog) bound(inheritor cadcam.Surrogate, rel string, transmitter cadcam.Surrogate) {
	a.mu.Lock()
	a.bindsTo[attrKey{inheritor, rel}] = transmitter
	a.mu.Unlock()
}

func (a *ackLog) size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.vals) + len(a.live) + len(a.bindsTo)
}

// ackReader is the read surface the acknowledgment oracle checks.
type ackReader interface {
	GetAttr(sur cadcam.Surrogate, name string) (cadcam.Value, error)
	Exists(sur cadcam.Surrogate) bool
	TransmitterOf(inheritor cadcam.Surrogate, relType string) cadcam.Surrogate
}

// checkAcks verifies every acknowledged write against r.
func checkAcks(a *ackLog, r ackReader) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for k, want := range a.vals {
		got, err := r.GetAttr(k.sur, k.attr)
		if err != nil {
			return fmt.Errorf("acked %s.%s: %w", k.sur, k.attr, err)
		}
		if !want.Equal(got) {
			return fmt.Errorf("acked %s.%s = %v, reads %v", k.sur, k.attr, want, got)
		}
	}
	for sur, live := range a.live {
		if r.Exists(sur) != live {
			return fmt.Errorf("acked %s live=%v, exists=%v", sur, live, !live)
		}
	}
	for k, want := range a.bindsTo {
		if got := r.TransmitterOf(k.sur, k.attr); got != want {
			return fmt.Errorf("acked %s bound to %s under %s, bound to %s", k.sur, want, k.attr, got)
		}
	}
	return nil
}
