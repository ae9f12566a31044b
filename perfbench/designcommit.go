package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"cadcam"
	"cadcam/internal/paperschema"
	"cadcam/internal/version"
)

// The design-commit workload: designers changing a durable design
// database. Interface edits, design transactions with lock inheritance
// (§6), check-ins of new implementation versions, component binds
// through generic references and deletes of abandoned alternatives, all
// journaled through group commit. It loads storage group commit, wal
// checkpoints and recovery, txn locks, version, and the topology locks
// with route invalidation; it bypasses query and serve.
// Acknowledgment does not wait for the fsync (see syncEvery).

// checkpointEvery triggers an automatic checkpoint after this many
// journaled records, so that several checkpoints complete in a run.
const checkpointEvery = 20000

// syncEvery is the journal's fsync cadence in records. The benchmark
// writes only inside its checkout, which may lie on a disk shared with
// other machines; an fsync per commit batch there varied the durable
// workloads' throughput by 25-40% from run to run. With a cadence above
// one the database acknowledges a mutation once its record is queued
// and the group-commit pipeline writes and fsyncs in the background, so
// the numbers measure the program rather than the host disk.
const syncEvery = 256

// flushPolicy describes syncEvery for the environment stamp.
const flushPolicy = "async acknowledgment, background fsync every 256 records (Options.SyncEvery 256)"

// openDurable opens a database in dir with the benchmark's flush policy.
func openDurable(dir string) (*cadcam.Database, error) {
	return cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: syncEvery, CheckpointEvery: checkpointEvery})
}

// durable is a durable database with its generated library.
type durable struct {
	db  *cadcam.Database
	dir string
	lib *library
}

// buildDurable bulk-loads the library into dir without fsyncs on
// append, checkpoints, closes, and reopens it with the benchmark's flush
// policy: a bulk import followed by the database a designer opens.
func buildDurable(dir string, sc scale, seed int64) (durable, error) {
	if err := os.RemoveAll(dir); err != nil {
		return durable{}, err
	}
	db, err := cadcam.Open(paperschema.MustGates(), cadcam.Options{Dir: dir, SyncEvery: -1})
	if err != nil {
		return durable{}, err
	}
	lib, err := buildLibrary(db, sc, rand.New(rand.NewSource(seed)))
	if err == nil {
		err = db.Checkpoint()
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return durable{}, err
	}
	db, err = openDurable(dir)
	return durable{db: db, dir: dir, lib: lib}, err
}

func (d durable) release() {
	_ = d.db.Close() // the next build starts from an empty directory
	_ = os.RemoveAll(d.dir)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// reopenAndVerify closes db, times the reopen of its directory, and
// checks every acknowledged write before the close and after the reopen.
// It returns the reopened database.
func reopenAndVerify(d durable, acks *ackLog, o *oracle, res *result) (*cadcam.Database, error) {
	o.check(orAcks, checkAcks(acks, dbReader{d.db}))
	bytes, err := dirBytes(d.dir)
	if err != nil {
		return nil, err
	}
	objects := objectCount(d.db)
	res.e2e["disk_bytes_per_object"] = metric{float64(bytes) / float64(objects), "B"}
	res.notes["objects"] = objects
	if err := d.db.Close(); err != nil {
		return nil, fmt.Errorf("close before reopen: %w", err)
	}
	t0 := time.Now()
	db, err := openDurable(d.dir)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	res.e2e["recovery_s"] = metric{elapsedSince(t0), "s"}
	if res.layer != nil {
		layerFromRecovery(res.layer, db.Stats().Recovery)
	}
	o.check(orAcks, checkAcks(acks, dbReader{db}))
	res.notes["acked_items"] = acks.size()
	return db, nil
}

// dbReader adapts a Database to the acknowledgment oracle.
type dbReader struct{ db *cadcam.Database }

func (r dbReader) GetAttr(sur cadcam.Surrogate, name string) (cadcam.Value, error) {
	return r.db.GetAttr(sur, name)
}
func (r dbReader) Exists(sur cadcam.Surrogate) bool { return r.db.Exists(sur) }
func (r dbReader) TransmitterOf(inheritor cadcam.Surrogate, rel string) cadcam.Surrogate {
	return r.db.TransmitterOf(inheritor, rel)
}

type dcState struct {
	db   *cadcam.Database
	lib  *library
	o    *oracle
	acks *ackLog
	cl   []*dcClient
}

// dcClient is a client's share: it alone writes its interfaces, checks
// into its designs and rebinds its placements, so each of those reads
// back an exact value. Design transactions pick implementations from
// the whole library, so the two clients contend for locks.
type dcClient struct {
	impl      *picker
	own       []int                       // interface (and design) indices
	timed     []int                       // placement indices
	defaults  map[string]cadcam.Surrogate // this client's designs' defaults
	checkedIn map[cadcam.Surrogate]bool   // versions this run checked in
	trials    []cadcam.Surrogate          // abandoned alternatives to delete
	next      int64                       // distinguishes acknowledged values
}

func runDesignCommit(cfg runConfig) (*result, error) {
	sc := designScale(cfg.sc)
	d, setupS, err := medianSetup(func(i int) (durable, error) {
		return buildDurable(filepath.Join(cfg.dir, fmt.Sprintf("data-%d", i)), sc, cfg.seed)
	}, durable.release)
	if err != nil {
		return nil, fmt.Errorf("design-commit set-up: %w", err)
	}
	defer func() { d.release() }()
	heap := heapMB()

	cs := newClients(cfg.seed)
	s := &dcState{db: d.db, lib: d.lib, o: &oracle{}, acks: newAckLog(), cl: newDCClients(d.lib, cs, cfg.seed)}
	m := measurePhases(cfg, cs, s.o, 1, d.db, nil, s.op)
	res, _, err := newResult(cfg, m, setupS, heap, s.o)
	if err != nil {
		return nil, err
	}
	db, err := reopenAndVerify(d, s.acks, s.o, res)
	if err != nil {
		return nil, err
	}
	d.db = db
	return res, nil
}

// newDCClients partitions the library between the clients.
func newDCClients(lib *library, cs []*client, seed int64) []*dcClient {
	perm := rand.New(rand.NewSource(seed + 1)).Perm(len(lib.impls))
	cl := make([]*dcClient, len(cs))
	for id, c := range cs {
		dc := &dcClient{impl: newPicker(c.rng, perm), defaults: map[string]cadcam.Surrogate{},
			checkedIn: map[cadcam.Surrogate]bool{}}
		for i := id; i < len(lib.designs); i += nClients {
			dc.own = append(dc.own, i)
			dc.defaults[lib.designs[i]] = lib.impls[lib.byIface[i][0]]
		}
		for i := id; i < len(lib.timed); i += nClients {
			dc.timed = append(dc.timed, i)
		}
		cl[id] = dc
	}
	return cl
}

func (s *dcState) op(c *client) error {
	dc := s.cl[c.id]
	dc.next++
	switch x := c.rng.Intn(1000); {
	case x < 320:
		return s.write(c, dc)
	case x < 680:
		return designTxn(c, c.tr.root("op.txn"), s.db, s.lib.impls[dc.impl.pick()], s.acks, dc.value(c))
	case x < 682:
		// Kept check-ins stay in the version history for good, so they
		// are rare: at this share the library grows by about a tenth in
		// a run. At one in a hundred it grew by 60% and throughput fell
		// by a third from the first window to the last.
		return s.checkIn(c, dc, true)
	case x < 782:
		return s.trial(c, dc)
	case x < 882:
		return s.bindResolved(c, dc)
	case x < 990:
		return s.read(c, dc)
	default:
		impl := s.lib.impls[dc.impl.pick()]
		s.o.check(orOneWay, checkRefused(s.db.SetAttr(impl, "Width", cadcam.Int(1))))
		return nil
	}
}

// value returns a value no other acknowledged write carries.
func (dc *dcClient) value(c *client) cadcam.Value {
	return cadcam.Int(int64(c.id)<<40 | dc.next)
}

func (s *dcState) write(c *client, dc *dcClient) error {
	i := dc.own[c.rng.Intn(len(dc.own))]
	attr, v := "Width", dc.value(c)
	if c.rng.Intn(2) == 0 {
		attr, v = "Length", cadcam.Int(1+c.rng.Int63n(lengthMax))
	}
	impls := s.lib.byIface[i]
	if err := writeReadBack(c, s.db, s.o, s.lib.ifaces[i], s.lib.impls[impls[c.rng.Intn(len(impls))]], attr, v); err != nil {
		return err
	}
	s.acks.set(s.lib.ifaces[i], attr, v)
	return nil
}

func (s *dcState) read(c *client, dc *dcClient) error {
	impl := s.lib.impls[dc.impl.pick()]
	root := c.tr.root("op.read")
	sp := c.tr.child(root, "object.get")
	t0 := time.Now()
	_, err := s.db.Store().GetAttr(impl, implAttrs[c.rng.Intn(len(implAttrs))])
	d := time.Since(t0)
	c.tr.end(sp)
	c.tr.end(root)
	if err != nil {
		return err
	}
	c.rec.add(kRead, d)
	return nil
}

// designTxn is one design transaction on one resolution chain: a
// lock-inherited read of the implementation's inherited Length (read
// locks on the implementation and on its interface, which owns Length),
// an exclusive write of its own TimeBehavior, and Commit. Both clients
// take the read locks first and one exclusive portion last, so they can
// wait for each other but never deadlock.
// Its spans are children of span, which it ends.
func designTxn(c *client, span int, db *cadcam.Database, impl cadcam.Surrogate, acks *ackLog, v cadcam.Value) error {
	root := span
	t0 := time.Now()
	sp := c.tr.child(root, "txn.begin")
	t := db.Begin("")
	c.tr.end(sp)
	err := func() error {
		sp := c.tr.child(root, "txn.get")
		_, err := t.GetAttr(impl, "Length")
		c.tr.end(sp)
		if err != nil {
			return err
		}
		sp = c.tr.child(root, "txn.set")
		err = t.SetAttr(impl, "TimeBehavior", v)
		c.tr.end(sp)
		if err == nil {
			// Recorded under the exclusive lock, so acknowledgments of
			// competing writers are logged in commit order.
			acks.set(impl, "TimeBehavior", v)
		}
		return err
	}()
	return finishTxn(c, root, t0, t, err)
}

// checkIn creates a new implementation of one of the client's designs.
// A kept check-in is registered as a version derived from the current
// default and becomes the default; the default it supersedes, if this
// run checked it in, is retired from the interface (unbound, but kept
// in the version history). Each design then has one checked-in version
// bound at a time: every bound implementation adds to the cost of a
// write to its interface, and a count that grew through the run would
// make throughput fall from window to window. An abandoned alternative stays an
// unregistered draft and is deleted later: the engine accepts deleting
// a registered version, but its next checkpoint then fails to reopen
// ("snapshot version object missing"), so the workload deletes only
// drafts until that defect is fixed.
func (s *dcState) checkIn(c *client, dc *dcClient, keep bool) error {
	i := dc.own[c.rng.Intn(len(dc.own))]
	design := s.lib.designs[i]
	root := c.tr.root("op.checkin")
	t0 := time.Now()
	sp := c.tr.child(root, "db.new_object")
	impl, err := s.db.NewObject(paperschema.TypeGateImplementation, implClass)
	c.tr.end(sp)
	if err == nil {
		sp = c.tr.child(root, "db.bind")
		_, err = s.db.Bind(paperschema.RelAllOfGateInterface, impl, s.lib.ifaces[i])
		c.tr.end(sp)
	}
	if err == nil && keep {
		sp = c.tr.child(root, "version.add_version")
		_, err = s.db.AddVersion(design, impl, []cadcam.Surrogate{dc.defaults[design]}, "main")
		c.tr.end(sp)
	}
	if err == nil && keep {
		sp = c.tr.child(root, "version.set_default")
		err = s.db.SetDefault(design, impl)
		c.tr.end(sp)
	}
	prev := dc.defaults[design]
	retire := err == nil && keep && dc.checkedIn[prev]
	if retire {
		sp = c.tr.child(root, "db.unbind")
		err = s.db.Unbind(paperschema.RelAllOfGateInterface, prev)
		c.tr.end(sp)
	}
	d := time.Since(t0)
	c.tr.end(root)
	if err != nil {
		return err
	}
	c.rec.add(kStruct, d)
	s.acks.exists(impl, true)
	if retire {
		s.acks.bound(prev, paperschema.RelAllOfGateInterface, 0)
	}
	if keep {
		dc.defaults[design] = impl
		dc.checkedIn[impl] = true
		s.acks.bound(impl, paperschema.RelAllOfGateInterface, s.lib.ifaces[i])
	} else {
		dc.trials = append(dc.trials, impl)
	}
	return nil
}

// bindResolved rebinds one of the client's placements to the default
// version of one of its designs, through a generic reference (§6).
func (s *dcState) bindResolved(c *client, dc *dcClient) error {
	j := dc.timed[c.rng.Intn(len(dc.timed))]
	tc := s.lib.timed[j]
	design := s.lib.designs[dc.own[c.rng.Intn(len(dc.own))]]
	ref := version.GenericRef{Design: design, Policy: cadcam.SelectDefault}
	root := c.tr.root("op.bind_resolved")
	t0 := time.Now()
	sp := c.tr.child(root, "db.unbind")
	err := s.db.Unbind(paperschema.RelSomeOfGate, tc)
	c.tr.end(sp)
	if err != nil {
		c.tr.end(root)
		return err
	}
	if c.tr != nil {
		// The resolution alone, timed for the version layer; BindResolved
		// repeats it.
		sp = c.tr.child(root, "version.resolve")
		_, err = s.db.Resolve(ref, nil)
		c.tr.end(sp)
		if err != nil {
			c.tr.end(root)
			return err
		}
	}
	sp = c.tr.child(root, "version.bind_resolved")
	chosen, _, err := s.db.BindResolved(paperschema.RelSomeOfGate, tc, ref, nil)
	c.tr.end(sp)
	d := time.Since(t0)
	c.tr.end(root)
	if err != nil {
		return err
	}
	c.rec.add(kStruct, d)
	if want := dc.defaults[design]; chosen != want {
		s.o.check(orAcks, fmt.Errorf("generic reference to %s resolved to %s, default is %s", design, chosen, want))
	}
	s.acks.bound(tc, paperschema.RelSomeOfGate, chosen)
	return nil
}

// maxTrials bounds the abandoned alternatives a client keeps before it
// deletes the oldest. Drafts are created and deleted at the same rate,
// so the library does not grow with them: an interface's inheritor
// count sets the cost of every write to it, and a library that grew
// through the run would make throughput fall from window to window.
const maxTrials = 4

// trial checks in an alternative that is abandoned at once, or deletes
// the oldest one when the client holds maxTrials of them.
func (s *dcState) trial(c *client, dc *dcClient) error {
	if len(dc.trials) < maxTrials {
		return s.checkIn(c, dc, false)
	}
	impl := dc.trials[0]
	root := c.tr.root("op.delete")
	sp := c.tr.child(root, "db.delete")
	t0 := time.Now()
	err := s.db.Delete(impl)
	d := time.Since(t0)
	c.tr.end(sp)
	c.tr.end(root)
	if err != nil {
		return err
	}
	dc.trials = dc.trials[1:]
	c.rec.add(kStruct, d)
	s.acks.exists(impl, false)
	return nil
}
