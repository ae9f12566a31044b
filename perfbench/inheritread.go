package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cadcam"
	"cadcam/internal/expr"
	"cadcam/internal/paperschema"
	"cadcam/internal/query"
	"cadcam/internal/txn"
)

// The inherit-read workload: a CAD tool browsing a large in-memory gate
// library. It reads inherited values view-like along binding chains
// (§2-§4), expands composites (Figures 1, 3, 4), runs indexed queries,
// and occasionally edits an interface and reads the change back through
// an implementation. It loads the object, inherit and query layers and
// bypasses storage, wal and serve: a change to those must leave it flat.

// irTraceEvery samples one operation in this many for spans: the
// workload completes hundreds of thousands of operations per second.
const irTraceEvery = 16

// irQueryChecks is how many queries the end-of-run oracle compares
// against query.Naive, after the clients have stopped: a check pins a
// snapshot and scans every implementation, which inside the timed loop
// would measure the oracle rather than the engine.
const irQueryChecks = 64

// irSnapEvery makes every this-many-th operation of a client a snapshot
// read, at a fixed cadence rather than a random share. Each release that
// finds retained versions sweeps the whole store; at this cadence the
// sweeps take about a third of the run, so their cost shows in ops_per_s
// without hiding the read path. At one operation in a hundred the sweeps
// ran back to back and throughput varied by a quarter between runs.
const irSnapEvery = 1000

type irState struct {
	db  *cadcam.Database
	lib *library
	o   *oracle
	cl  []*irClient
}

// irClient is a client's share of the library: the Zipf pickers, the
// interfaces only it writes and the implementations only it rebinds, so
// every read-back has one writer and an exact expected value.
type irClient struct {
	impl, sub, comp *picker
	own             []int
	float           []cadcam.Surrogate
}

var (
	implAttrs = []string{"Length", "Width", "TimeBehavior"}
	subAttrs  = []string{"Length", "Width", "GateLocation"}
)

func runInheritRead(cfg runConfig) (*result, error) {
	type built struct {
		db  *cadcam.Database
		lib *library
	}
	b, setupS, err := medianSetup(func(int) (built, error) {
		db, err := cadcam.OpenMemory(paperschema.MustGates())
		if err != nil {
			return built{}, err
		}
		lib, err := buildLibrary(db, cfg.sc, rand.New(rand.NewSource(cfg.seed)))
		if err != nil {
			return built{}, err
		}
		return built{db, lib}, warmRoutes(db, lib)
	}, func(b built) { b.db.Close() })
	if err != nil {
		return nil, fmt.Errorf("inherit-read set-up: %w", err)
	}
	defer b.db.Close()
	heap := heapMB()

	s := &irState{db: b.db, lib: b.lib, o: &oracle{}}
	r := rand.New(rand.NewSource(cfg.seed + 1))
	implPerm, subPerm, compPerm := r.Perm(len(b.lib.impls)), r.Perm(len(b.lib.subgates)), r.Perm(len(b.lib.comps))
	cs := newClients(cfg.seed)
	for _, c := range cs {
		ic := &irClient{impl: newPicker(c.rng, implPerm), sub: newPicker(c.rng, subPerm), comp: newPicker(c.rng, compPerm)}
		for i := c.id; i < len(b.lib.ifaces); i += nClients {
			if len(b.lib.byIface[i]) > 0 {
				ic.own = append(ic.own, i)
			}
		}
		for i := c.id; i < len(b.lib.floating); i += nClients {
			ic.float = append(ic.float, b.lib.floating[i])
		}
		s.cl = append(s.cl, ic)
	}
	m := measurePhases(cfg, cs, s.o, irTraceEvery, b.db, nil, s.op)
	qr := rand.New(rand.NewSource(cfg.seed + 2))
	for i := 0; i < irQueryChecks; i++ {
		s.o.check(orQuery, naiveCheck(b.db, irWhere(qr)))
	}
	res, _, err := newResult(cfg, m, setupS, heap, s.o)
	if err != nil {
		return nil, err
	}
	res.notes["objects"] = objectCount(b.db)
	res.notes["mvcc"] = b.db.Stats().MVCC
	return res, nil
}

// warmRoutes resolves every value and subclass the workload reads once,
// so the timed phase starts with the route cache filled.
func warmRoutes(db *cadcam.Database, lib *library) error {
	st := db.Store()
	warm := func(surs []cadcam.Surrogate, attrs []string) error {
		for _, sur := range surs {
			for _, a := range attrs {
				if _, err := st.GetAttr(sur, a); err != nil {
					return err
				}
			}
			if _, err := st.Members(sur, "Pins"); err != nil {
				return err
			}
		}
		return nil
	}
	if err := warm(lib.impls, implAttrs); err != nil {
		return err
	}
	return warm(lib.subgates, subAttrs)
}

// op is one closed-loop operation, drawn from the workload's mix.
func (s *irState) op(c *client) error {
	ic := s.cl[c.id]
	if c.nops%irSnapEvery == 0 {
		return s.snap(c, ic)
	}
	switch x := c.rng.Intn(10000); {
	case x < 6400:
		return s.read(c, ic)
	case x < 8050:
		return s.members(c, ic)
	case x < 8450:
		return s.expand(c, ic)
	case x < 8750:
		return s.query(c, ic)
	case x < 9250:
		return s.txn(c, ic)
	case x < 9899:
		return s.write(c, ic)
	case x < 9900:
		return s.rebind(c, ic)
	default:
		return s.oneWay(c, ic)
	}
}

// inheritor picks a Zipf-hot inheritor: an implementation (bound to an
// interface) or a composite's subgate (bound to a shared interface).
func (s *irState) inheritor(c *client, ic *irClient) (cadcam.Surrogate, string) {
	if c.rng.Intn(10) < 7 {
		return s.lib.impls[ic.impl.pick()], implAttrs[c.rng.Intn(len(implAttrs))]
	}
	return s.lib.subgates[ic.sub.pick()], subAttrs[c.rng.Intn(len(subAttrs))]
}

func (s *irState) read(c *client, ic *irClient) error {
	sur, attr := s.inheritor(c, ic)
	root := c.tr.root("op.read")
	sp := c.tr.child(root, "object.get")
	t0 := time.Now()
	_, err := s.db.Store().GetAttr(sur, attr)
	d := time.Since(t0)
	c.tr.end(sp)
	c.tr.end(root)
	if err != nil {
		return err
	}
	c.rec.add(kRead, d)
	return nil
}

func (s *irState) members(c *client, ic *irClient) error {
	sur, _ := s.inheritor(c, ic)
	root := c.tr.root("op.members")
	sp := c.tr.child(root, "object.members")
	t0 := time.Now()
	_, err := s.db.Store().Members(sur, "Pins")
	d := time.Since(t0)
	c.tr.end(sp)
	c.tr.end(root)
	if err != nil {
		return err
	}
	c.rec.add(kRead, d)
	return nil
}

// snap pins a snapshot and reads, at the pin, the inherited Length and
// Width of every subgate of a composite: a consistent view of one design.
func (s *irState) snap(c *client, ic *irClient) error {
	ff := s.lib.comps[ic.comp.pick()]
	root := c.tr.root("op.snap")
	t0 := time.Now()
	sp := c.tr.child(root, "object.snapshot")
	v := s.db.SnapshotView()
	c.tr.end(sp)
	err := func() error {
		defer v.Release()
		for _, sg := range ff.SubGates {
			for _, attr := range []string{"Length", "Width"} {
				sp := c.tr.child(root, "object.snap_get")
				t1 := time.Now()
				_, err := v.GetAttr(sg, attr)
				d := time.Since(t1)
				c.tr.end(sp)
				if err != nil {
					return err
				}
				c.rec.add(kRead, d)
			}
		}
		return nil
	}()
	c.tr.end(root)
	if err != nil {
		return err
	}
	c.rec.add(kSnap, time.Since(t0))
	return nil
}

// expand materializes a composite (Expand) or computes the portions
// lock inheritance protects (VisibleComponents), alternately.
func (s *irState) expand(c *client, ic *irClient) error {
	ff := s.lib.comps[ic.comp.pick()]
	root := c.tr.root("op.expand")
	t0 := time.Now()
	var err error
	if c.rng.Intn(2) == 0 {
		sp := c.tr.child(root, "inherit.expand")
		var e *cadcam.Expansion
		e, err = s.db.Expand(ff.Impl)
		c.tr.end(sp)
		if err == nil && c.tr != nil {
			c.acc.expandNodes += int64(e.Size())
			c.acc.exp++
		}
	} else {
		sp := c.tr.child(root, "inherit.visible_components")
		_, err = s.db.VisibleComponents(ff.Impl)
		c.tr.end(sp)
	}
	d := time.Since(t0)
	c.tr.end(root)
	if err != nil {
		return err
	}
	c.rec.add(kExpand, d)
	return nil
}

// query runs an indexed query over the implementations' inherited
// Length: an equality probe, alone or with a residual filter.
func (s *irState) query(c *client, ic *irClient) error {
	return runQuery(c, s.db, irWhere(c.rng))
}

// irWhere draws one of the workload's query predicates.
func irWhere(r *rand.Rand) string {
	k := 1 + r.Intn(lengthMax)
	if r.Intn(2) == 0 {
		return fmt.Sprintf("Length = %d and TimeBehavior < %d", k, 20+r.Intn(80))
	}
	return fmt.Sprintf("Length = %d", k)
}

// runQuery times one query through its public stages: parse, plan, run.
func runQuery(c *client, db *cadcam.Database, where string) error {
	root := c.tr.root("op.query")
	t0 := time.Now()
	sp := c.tr.child(root, "query.parse")
	e, err := expr.Parse(where)
	c.tr.end(sp)
	if err != nil {
		c.tr.end(root)
		return err
	}
	src := query.ForStore(db.Store())
	sp = c.tr.child(root, "query.plan")
	p, err := query.Build(src, implClass, e)
	c.tr.end(sp)
	if err != nil {
		c.tr.end(root)
		return err
	}
	sp = c.tr.child(root, "query.run")
	rows, err := p.Run(src)
	c.tr.end(sp)
	d := time.Since(t0)
	c.tr.end(root)
	if err != nil {
		return err
	}
	c.rec.add(kQuery, d)
	if c.tr != nil {
		c.acc.candidates += int64(p.EstCandidates)
		c.acc.rows += int64(len(rows))
	}
	return nil
}

// naiveCheck runs a query with the planner and with query.Naive on one
// pinned snapshot, so concurrent writers cannot make them differ.
func naiveCheck(db *cadcam.Database, where string) error {
	v := db.SnapshotView()
	defer v.Release()
	planned, err := v.Query(implClass, where)
	if err != nil {
		return err
	}
	e, err := expr.Parse(where)
	if err != nil {
		return err
	}
	naive, err := query.Naive(query.ForSnapshot(v.Snapshot()), implClass, e)
	if err != nil {
		return err
	}
	return checkRows(planned, naive)
}

// txn is a read-only design review: lock-inherited reads of an
// implementation's inherited Length and Pins (§6), then Commit.
func (s *irState) txn(c *client, ic *irClient) error {
	impl := s.lib.impls[ic.impl.pick()]
	root := c.tr.root("op.txn")
	t0 := time.Now()
	sp := c.tr.child(root, "txn.begin")
	t := s.db.Begin("")
	c.tr.end(sp)
	err := func() error {
		sp := c.tr.child(root, "txn.get")
		_, err := t.GetAttr(impl, "Length")
		c.tr.end(sp)
		if err != nil {
			return err
		}
		sp = c.tr.child(root, "txn.members")
		_, err = t.Members(impl, "Pins")
		c.tr.end(sp)
		return err
	}()
	return finishTxn(c, root, t0, t, err)
}

// finishTxn commits a transaction whose statements succeeded, or aborts
// it, and records the outcome.
func finishTxn(c *client, root int, t0 time.Time, t *cadcam.Txn, err error) error {
	if c.tr != nil {
		c.acc.txns++
		c.acc.locks += int64(len(t.HeldLocks()))
		c.acc.lockTxns++
	}
	if err != nil {
		if c.tr != nil && errors.Is(err, txn.ErrDeadlock) {
			c.acc.aborts++
		}
		c.tr.end(root)
		if aerr := t.Abort(); aerr != nil {
			return errors.Join(err, aerr)
		}
		return err
	}
	sp := c.tr.child(root, "txn.commit")
	err = t.Commit()
	c.tr.end(sp)
	d := time.Since(t0)
	c.tr.end(root)
	if err != nil {
		return err
	}
	c.rec.add(kTxn, d)
	return nil
}

// write edits an interface this client owns (a transmitter) and reads
// the value back through one of its implementations.
func (s *irState) write(c *client, ic *irClient) error {
	i := ic.own[c.rng.Intn(len(ic.own))]
	attr, v := "Width", cadcam.Int(1+c.rng.Int63n(50))
	if c.rng.Intn(2) == 0 {
		attr, v = "Length", cadcam.Int(1+c.rng.Int63n(lengthMax))
	}
	impls := s.lib.byIface[i]
	return writeReadBack(c, s.db, s.o, s.lib.ifaces[i], s.lib.impls[impls[c.rng.Intn(len(impls))]], attr, v)
}

// writeReadBack writes a transmitter attribute through the facade and
// checks the instant-visibility oracle through an inheritor.
func writeReadBack(c *client, db *cadcam.Database, o *oracle, transmitter, inheritor cadcam.Surrogate, attr string, v cadcam.Value) error {
	root := c.tr.root("op.write")
	sp := c.tr.child(root, "db.set_attr")
	t0 := time.Now()
	err := db.SetAttr(transmitter, attr, v)
	d := time.Since(t0)
	c.tr.end(sp)
	if err != nil {
		c.tr.end(root)
		return err
	}
	c.rec.add(kWrite, d)
	sp = c.tr.child(root, "object.get")
	t0 = time.Now()
	got, err := db.Store().GetAttr(inheritor, attr)
	d = time.Since(t0)
	c.tr.end(sp)
	c.tr.end(root)
	o.check(orVisible, checkVisible(v, got, err))
	if err == nil {
		c.rec.add(kRead, d)
	}
	return nil
}

// rebind moves a floating implementation to another interface.
func (s *irState) rebind(c *client, ic *irClient) error {
	f := ic.float[c.rng.Intn(len(ic.float))]
	i := c.rng.Intn(len(s.lib.ifaces))
	to := s.lib.ifaces[i]
	if s.db.TransmitterOf(f, paperschema.RelAllOfGateInterface) == to {
		to = s.lib.ifaces[(i+1)%len(s.lib.ifaces)]
	}
	root := c.tr.root("op.rebind")
	t0 := time.Now()
	sp := c.tr.child(root, "db.unbind")
	err := s.db.Unbind(paperschema.RelAllOfGateInterface, f)
	c.tr.end(sp)
	if err == nil {
		sp = c.tr.child(root, "db.bind")
		_, err = s.db.Bind(paperschema.RelAllOfGateInterface, f, to)
		c.tr.end(sp)
	}
	d := time.Since(t0)
	c.tr.end(root)
	if err != nil {
		return err
	}
	c.rec.add(kStruct, d)
	if got := s.db.TransmitterOf(f, paperschema.RelAllOfGateInterface); got != to {
		s.o.check(orAcks, fmt.Errorf("rebound %s to %s, transmitter is %s", f, to, got))
	}
	return nil
}

// oneWay writes an inherited attribute through an implementation; the
// engine must refuse. The refusal is the expected outcome, so the
// operation succeeds when the oracle holds.
func (s *irState) oneWay(c *client, ic *irClient) error {
	impl := s.lib.impls[ic.impl.pick()]
	s.o.check(orOneWay, checkRefused(s.db.SetAttr(impl, "Length", cadcam.Int(1))))
	return nil
}
