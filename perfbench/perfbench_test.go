package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"cadcam"
	"cadcam/internal/bench"
	"cadcam/internal/paperschema"
	"cadcam/internal/txn"
)

// smallScale keeps the tests' libraries small; the workloads' code paths
// are the same as at full scale.
var smallScale = scale{ifaces: 60, implsPer: 3, floating: 8, composites: 10, subgates: 4}

func shortRun(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	cfg := runConfig{workload: workload, seed: 7, seconds: 0.9, trace: traced, dir: t.TempDir(), sc: smallScale}
	res, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.oracle.ok() {
		t.Fatalf("%s: oracle tripped: %v", workload, res.oracle.report())
	}
	if res.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, res.failed, res.attempted, res.errs)
	}
	return res
}

// declared reads a metric list of BENCHMARK.json as name → unit.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var list []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &list); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric lists
// the result line is assembled from identical.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	for key, defs := range map[string][]metricDef{"end_to_end": gatedE2E, "per_layer": perLayer} {
		want := declared(t, key)
		if len(want) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", key, len(want), len(defs))
		}
		for _, d := range defs {
			if want[d.name] != d.unit {
				t.Errorf("%s: %s in %q, BENCHMARK.json says %q", key, d.name, d.unit, want[d.name])
			}
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload briefly, untraced and
// traced, and checks that the result line carries every metric
// BENCHMARK.json declares, with its unit, and that every oracle held.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res := shortRun(t, name, traced)
			final, err := finalLine(res, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			key := "end_to_end"
			if traced {
				key = "per_layer"
			}
			got := final["metrics"].(map[string]metric)
			for m, unit := range declared(t, key) {
				if g, ok := got[m]; !ok || g.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m, g, unit)
				}
			}
			if final["correct"] != true {
				t.Errorf("%s traced=%v: not correct", name, traced)
			}
		}
	}
}

// Each oracle must trip on a planted wrong answer.

func TestOracleVisibleTrips(t *testing.T) {
	db, err := cadcam.OpenMemory(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	iface, err := bench.Interface(db, 2, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	impl, _ := db.NewObject(paperschema.TypeGateImplementation, "")
	if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		t.Fatal(err)
	}
	if err := db.SetAttr(iface, "Width", cadcam.Int(9)); err != nil {
		t.Fatal(err)
	}
	got, err := db.GetAttr(impl, "Width")
	if err := checkVisible(cadcam.Int(9), got, err); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}
	stale := cadcam.Int(2) // the value before the write
	if checkVisible(cadcam.Int(9), stale, nil) == nil {
		t.Fatal("stale inherited value accepted")
	}
}

func TestOracleOneWayTrips(t *testing.T) {
	db, _ := cadcam.OpenMemory(paperschema.MustGates())
	iface, _ := bench.Interface(db, 2, 1, 4, 2)
	impl, _ := db.NewObject(paperschema.TypeGateImplementation, "")
	if _, err := db.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		t.Fatal(err)
	}
	if err := checkRefused(db.SetAttr(impl, "Length", cadcam.Int(1))); err != nil {
		t.Fatalf("true refusal rejected: %v", err)
	}
	if checkRefused(nil) == nil {
		t.Fatal("accepted write to an inherited attribute passed")
	}
	if checkRefused(errors.New("disk full")) == nil {
		t.Fatal("unrelated error passed as the write protection")
	}
}

func TestOracleQueryTrips(t *testing.T) {
	db, _ := cadcam.OpenMemory(paperschema.MustGates())
	if _, err := buildLibrary(db, smallScale, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	const where = "Length > 50"
	if err := naiveCheck(db, where); err != nil {
		t.Fatalf("planner and naive evaluation differ: %v", err)
	}
	rows, err := db.Query(implClass, where)
	if err != nil || len(rows) < 2 {
		t.Fatalf("query: %d rows, %v", len(rows), err)
	}
	if checkRows(rows[1:], rows) == nil {
		t.Fatal("a result missing a row passed")
	}
	wrong := append([]cadcam.Surrogate{rows[0] + 100000}, rows[1:]...)
	if checkRows(wrong, rows) == nil {
		t.Fatal("a result with a foreign row passed")
	}
}

func TestOracleAcksTrips(t *testing.T) {
	d, err := buildDurable(t.TempDir(), designScale(smallScale), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.release() }()
	acks := newAckLog()
	iface := d.lib.ifaces[0]
	if err := d.db.SetAttr(iface, "Width", cadcam.Int(77)); err != nil {
		t.Fatal(err)
	}
	acks.set(iface, "Width", cadcam.Int(77))
	o := &oracle{}
	res := &result{e2e: map[string]metric{}, notes: map[string]any{}, oracle: o}
	db, err := reopenAndVerify(d, acks, o, res)
	if err != nil {
		t.Fatal(err)
	}
	d.db = db
	if !o.ok() {
		t.Fatalf("true acknowledgments rejected: %v", o.report())
	}
	// Plant a lost acknowledgment: the database now holds another value.
	if err := db.SetAttr(iface, "Width", cadcam.Int(78)); err != nil {
		t.Fatal(err)
	}
	if checkAcks(acks, dbReader{db}) == nil {
		t.Fatal("overwritten acknowledged value passed")
	}
	acks.set(iface, "Width", cadcam.Int(78))
	acks.exists(d.lib.impls[0], false) // planted: the object still exists
	if checkAcks(acks, dbReader{db}) == nil {
		t.Fatal("acknowledged delete of a live object passed")
	}
}

func TestOracleDrainTrips(t *testing.T) {
	sv, err := startServed(t.TempDir(), designScale(smallScale), 9)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.release()
	pin := sv.db.SnapshotView() // planted leak: a pin the drain cannot see
	tx := sv.db.Begin("")       // planted leak: a transaction holding locks
	if _, err := tx.GetAttr(sv.lib.impls[0], "Length"); err != nil {
		t.Fatal(err)
	}
	if err := sv.shutdown(); err != nil {
		t.Fatal(err)
	}
	if checkDrained(sv.srv.Stats().Sessions, sv.db.Stats().MVCC.Pins, sv.db.Txns().LockTableStats()) == nil {
		t.Fatal("leaked pin and locks passed")
	}
	pin.Release()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := checkDrained(sv.srv.Stats().Sessions, sv.db.Stats().MVCC.Pins, sv.db.Txns().LockTableStats()); err != nil {
		t.Fatalf("clean drain rejected: %v", err)
	}
	if checkDrained(1, 0, txn.LockTableStats{}) == nil {
		t.Fatal("a session left after drain passed")
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which judges the spread.
func TestQuartilesMatchPython(t *testing.T) {
	s := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.q1 != 2.75 || s.med != 5.5 || s.q3 != 8.25 {
		t.Fatalf("quartiles = %+v, want 2.75 5.5 8.25", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	runs := func(vals ...float64) []savedRun {
		var out []savedRun
		for i, v := range vals {
			out = append(out, savedRun{workload: "w", seed: int64(i), correct: true, attempted: 1000,
				metrics: map[string]metric{"ops_per_s": {v, "ops/s"}}})
		}
		return out
	}
	base := runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		b    []savedRun
		want string
	}{
		{runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "improved"},
		{runs(99, 100, 101, 100, 99, 101, 100, 98, 102, 100), "no worse"},
		{runs(70, 71, 69, 70, 72, 68, 70, 71, 69, 70), "worse"},
	}
	for _, c := range cases {
		if got := verdict(base, c.b, "ops_per_s", true, 0.1); got != c.want {
			t.Errorf("verdict = %s, want %s", got, c.want)
		}
	}
	noisy := runs(50, 150, 80, 120, 100, 60, 140, 90, 110, 100)
	if got := verdict(noisy, runs(95, 96, 94, 95, 97, 93, 95, 96, 94, 95), "ops_per_s", true, 0.1); got != "unresolved" {
		t.Errorf("verdict on a noisy parent = %s, want unresolved", got)
	}
	var out strings.Builder
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"workloads":[{"name":"w"}],"end_to_end":[{"name":"ops_per_s","unit":"ops/s","better":"higher","bound":0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	if err := compare(&out, spec, base, cases[0].b); err != nil || !strings.Contains(out.String(), "improved") {
		t.Fatalf("compare printed %q, %v", out.String(), err)
	}

	// A faster change that fails operations is incorrect, not improved.
	failing := runs(120, 121, 119, 120, 122, 118, 120, 121, 119, 120)
	failing[3].correct, failing[3].failed = false, 40
	out.Reset()
	if err := compare(&out, spec, base, failing); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); strings.Contains(got, "improved") || !strings.Contains(got, "incorrect") ||
		!strings.Contains(got, "B: 10 runs, 1 incorrect, 40 failed ops") {
		t.Fatalf("compare with a failing change printed %q", got)
	}
}

// TestFailedOperationsAreNotThroughput checks that an operation that
// fails neither counts towards ops_per_s nor leaves the run correct.
func TestFailedOperationsAreNotThroughput(t *testing.T) {
	cs := newClients(1)
	o := &oracle{}
	ph := runPhase(cs, 1200*time.Millisecond, 0, o, func(c *client) error {
		time.Sleep(50 * time.Microsecond)
		if c.nops%2 == 0 {
			return errors.New("refused")
		}
		return nil
	})
	attempted, failed := ph.ops()
	if failed == 0 || failed == attempted {
		t.Fatalf("%d of %d operations failed, want about half", failed, attempted)
	}
	if got, max := ph.opsPerS(), 1.2*float64(ph.completed())/ph.elapsed.Seconds(); got > max {
		t.Fatalf("ops_per_s %.0f counts failed operations (completed rate %.0f)", got, max/1.2)
	}
	res := &result{oracle: o, attempted: attempted, failed: failed, e2e: map[string]metric{}}
	for _, d := range gatedE2E {
		res.e2e[d.name] = metric{1, d.unit}
	}
	line, err := finalLine(res, false)
	if err != nil {
		t.Fatal(err)
	}
	if line["correct"].(bool) {
		t.Fatal("a run with failed operations reported correct")
	}
}
