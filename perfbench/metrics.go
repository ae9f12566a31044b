package main

import (
	"runtime"

	"cadcam"
	"cadcam/internal/serve"
)

// metricDef declares a metric the final result line carries.
type metricDef struct{ name, unit string }

// gatedE2E are the end-to-end metrics every workload reports with
// tracing off; BENCHMARK.json lists the same names and units. The result
// line must carry every gated metric on every workload, so a timing only
// some workloads exercise (query, expand, snapshot, recovery, disk
// footprint) is printed on the detail line instead, as are the 99th
// percentiles: on a shared two-core host their run-to-run spread
// exceeded a tenth on at least one workload.
var gatedE2E = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"ops_per_s", "ops/s"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"txn_p50_us", "us"},
	{"struct_p50_us", "us"},
}

// perLayer are the metrics of a traced run, measured from outside each
// layer. A workload that bypasses a layer reports its metrics as 0.
var perLayer = []metricDef{
	{"serve.ping_rtt_us", "us"},
	{"serve.get_self_us", "us"},
	{"serve.set_self_us", "us"},
	{"serve.txn_self_us", "us"},
	{"serve.pipeline_hw", "count"},
	{"serve.op_errors", "count"},
	{"serve.busy_rejected", "count"},
	{"object.get_ns", "ns"},
	{"object.members_ns", "ns"},
	{"object.snap_get_ns", "ns"},
	{"object.route_hit_ratio", "ratio"},
	{"object.invalidations_per_kop", "1/kop"},
	{"object.mvcc_retained_per_kop", "1/kop"},
	{"object.mvcc_sweeps_per_kop", "1/kop"},
	{"txn.set_us", "us"},
	{"txn.commit_us", "us"},
	{"txn.locks_per_txn", "count"},
	{"txn.lock_queued_max", "count"},
	{"txn.abort_ratio", "ratio"},
	{"inherit.expand_us", "us"},
	{"inherit.visible_components_us", "us"},
	{"inherit.expansion_size", "count"},
	{"query.plan_us", "us"},
	{"query.run_us", "us"},
	{"query.candidates_per_row", "ratio"},
	{"version.resolve_us", "us"},
	{"version.bind_resolved_us", "us"},
	{"storage.records_per_sync", "ratio"},
	{"storage.max_batch", "count"},
	{"wal.checkpoints", "count"},
	{"wal.ckpt_lock_hold_max_us", "us"},
	{"wal.ckpt_bytes_per_op", "B/op"},
	{"wal.segments_skipped_ratio", "ratio"},
	{"wal.recovery_decode_ms", "ms"},
	{"wal.recovery_replay_ms", "ms"},
	{"wal.recovery_replay_ops", "count"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_per_kop", "1/kop"},
	{"bench.trace_overhead", "ratio"},
}

// e2eFrom fills the latency and throughput metrics of an untraced phase.
// A timing is reported only for kinds the workload exercised; a p99 only
// when at least ten samples lie beyond it.
func e2eFrom(m *merged, opsPerS float64) map[string]metric {
	out := map[string]metric{
		"ops_per_s":   {opsPerS, "ops/s"},
		"error_ratio": {ratio(float64(m.failed), float64(m.ops)), "ratio"},
	}
	for k := kind(0); k < nKinds; k++ {
		if len(m.samples[k]) == 0 {
			continue
		}
		name := kindNames[k]
		out[name+"_p50_us"] = metric{m.p(k, 0.5), "us"}
		if m.tailOK(k) {
			out[name+"_p99_us"] = metric{m.p(k, 0.99), "us"}
		}
	}
	return out
}

// sampleCounts reports how many latency samples (after reservoir
// sampling) and operations stand behind each kind's timings.
func sampleCounts(m *merged) map[string]int {
	out := map[string]int{}
	for k := kind(0); k < nKinds; k++ {
		if m.seen[k] > 0 {
			out[kindNames[k]+"_ops"] = int(m.seen[k])
			out[kindNames[k]+"_samples"] = len(m.samples[k])
		}
	}
	return out
}

// newLayerMap returns every per-layer metric at 0, for a workload to
// overwrite the ones its layers produce.
func newLayerMap() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metric{0, d.unit}
	}
	return out
}

// set overwrites a declared per-layer metric, keeping its unit.
func setLayer(l map[string]metric, name string, v float64) {
	m, ok := l[name]
	if !ok {
		panic("undeclared per-layer metric " + name) // a typo in this package
	}
	m.Value = v
	l[name] = m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is a snapshot of the public counters a traced phase diffs.
type counters struct {
	db  cadcam.DBStats
	mem runtime.MemStats
	srv serve.ServerStats
}

func snapCounters(db *cadcam.Database, srv *serve.Server) counters {
	c := counters{db: db.Stats()}
	runtime.ReadMemStats(&c.mem)
	if srv != nil {
		c.srv = srv.Stats()
	}
	return c
}

// layerFromCounters fills the counter-derived per-layer metrics for the
// interval between two snapshots in which ops operations completed.
func layerFromCounters(l map[string]metric, a, b counters, ops int64) {
	kops := float64(ops) / 1e3
	hits := float64(b.db.Hits - a.db.Hits)
	misses := float64(b.db.Misses - a.db.Misses)
	setLayer(l, "object.route_hit_ratio", ratio(hits, hits+misses))
	setLayer(l, "object.invalidations_per_kop", ratio(float64(b.db.Invalidations-a.db.Invalidations), kops))
	setLayer(l, "object.mvcc_retained_per_kop", ratio(float64(b.db.MVCC.Retained-a.db.MVCC.Retained), kops))
	setLayer(l, "object.mvcc_sweeps_per_kop", ratio(float64(b.db.MVCC.GCRuns-a.db.MVCC.GCRuns), kops))

	recs := float64(b.db.WAL.Records - a.db.WAL.Records)
	setLayer(l, "storage.records_per_sync", ratio(recs, float64(b.db.WAL.Syncs-a.db.WAL.Syncs)))
	setLayer(l, "storage.max_batch", float64(b.db.WAL.MaxBatch))

	ck := b.db.Checkpoint
	setLayer(l, "wal.checkpoints", float64(ck.Checkpoints-a.db.Checkpoint.Checkpoints))
	setLayer(l, "wal.ckpt_lock_hold_max_us", float64(ck.MaxLockHoldNs)/1e3)
	setLayer(l, "wal.ckpt_bytes_per_op", ratio(float64(ck.BytesEncoded-a.db.Checkpoint.BytesEncoded), float64(ops)))
	written := float64(ck.SegmentsWritten - a.db.Checkpoint.SegmentsWritten)
	skipped := float64(ck.SegmentsSkipped - a.db.Checkpoint.SegmentsSkipped)
	setLayer(l, "wal.segments_skipped_ratio", ratio(skipped, written+skipped))

	setLayer(l, "runtime.alloc_bytes_per_op", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), float64(ops)))
	setLayer(l, "runtime.gc_per_kop", ratio(float64(b.mem.NumGC-a.mem.NumGC), kops))

	setLayer(l, "serve.pipeline_hw", float64(b.srv.PipelineHW))
	setLayer(l, "serve.op_errors", float64(b.srv.OpErrors-a.srv.OpErrors))
	setLayer(l, "serve.busy_rejected", float64(b.srv.BusyRejected-a.srv.BusyRejected))
}

// layerFromRecovery fills the recovery metrics from the RecoveryStats of
// the timed reopen.
func layerFromRecovery(l map[string]metric, rs cadcam.RecoveryStats) {
	setLayer(l, "wal.recovery_decode_ms", float64(rs.DecodeNs)/1e6)
	setLayer(l, "wal.recovery_replay_ms", float64(rs.ReplayNs)/1e6)
	setLayer(l, "wal.recovery_replay_ops", float64(rs.ReplayOps))
}

// layerFromSpans fills the span-derived per-layer metrics every workload
// shares. Missing spans leave the metric at 0.
func layerFromSpans(l map[string]metric, st map[string]*spanStats) {
	us := func(name string) float64 { return spanP50(st, name) / 1e3 }
	setLayer(l, "object.get_ns", spanP50(st, "object.get"))
	setLayer(l, "object.members_ns", spanP50(st, "object.members"))
	setLayer(l, "object.snap_get_ns", spanP50(st, "object.snap_get"))
	setLayer(l, "txn.set_us", us("txn.set"))
	setLayer(l, "txn.commit_us", us("txn.commit"))
	setLayer(l, "inherit.expand_us", us("inherit.expand"))
	setLayer(l, "inherit.visible_components_us", us("inherit.visible_components"))
	setLayer(l, "query.plan_us", us("query.plan"))
	setLayer(l, "query.run_us", us("query.run"))
	setLayer(l, "version.resolve_us", us("version.resolve"))
	setLayer(l, "version.bind_resolved_us", us("version.bind_resolved"))
	setLayer(l, "serve.ping_rtt_us", us("serve.ping"))
}

// objectCount is the number of live objects in the store.
func objectCount(db *cadcam.Database) int {
	n := 0
	for _, sh := range db.Stats().PerShard {
		n += sh.Objects
	}
	return n
}
