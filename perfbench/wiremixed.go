package main

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"time"

	"cadcam"
	"cadcam/internal/expr"
	"cadcam/internal/paperschema"
	"cadcam/internal/query"
	"cadcam/internal/serve"
)

// The wire-mixed workload: the deployed path. The durable database of
// design-commit sits behind serve.Server on TCP loopback; each client
// holds one connection with one request outstanding and runs the mixed
// session body of `cadbench -serve` (get, set, transaction, snapshot,
// query, new+bind) with a Ping probe interleaved. A serve-only change
// must move this workload and neither of the other two.

// wmQueryChecks is how many quiesced queries the end-of-run oracle
// compares against query.Naive.
const wmQueryChecks = 20

// served is a durable database behind a server with the benchmark's
// client connections.
type served struct {
	durable
	srv     *serve.Server
	serving chan error // Serve's result once the listener closes
	conns   []*serve.Client
}

func startServed(dir string, sc scale, seed int64) (*served, error) {
	d, err := buildDurable(dir, sc, seed)
	if err != nil {
		return nil, err
	}
	s := &served{durable: d, serving: make(chan error, 1)}
	s.srv, err = serve.New(serve.Config{DB: d.db})
	if err != nil {
		d.release()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.release()
		return nil, err
	}
	go func() { s.serving <- s.srv.Serve(l) }()
	for i := 0; i < nClients; i++ {
		c, err := serve.Dial(l.Addr().String(), serve.DialOptions{User: fmt.Sprintf("designer-%d", i)})
		if err != nil {
			s.stop()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// shutdown drains the server gracefully and waits for Serve to return.
func (s *served) shutdown() error {
	err := s.srv.Shutdown(10 * time.Second)
	if serr := <-s.serving; err == nil {
		err = serr
	}
	for _, c := range s.conns {
		_ = c.Close() // the drain already closed the session
	}
	return err
}

func (s *served) stop() {
	_ = s.shutdown() // a set-up being discarded or failing
	s.release()
}

type wmState struct {
	db    *cadcam.Database
	lib   *library
	o     *oracle
	acks  *ackLog
	conns []*serve.Client
	cl    []*dcClient
}

func runWireMixed(cfg runConfig) (*result, error) {
	sc := designScale(cfg.sc)
	sv, setupS, err := medianSetup(func(i int) (*served, error) {
		return startServed(filepath.Join(cfg.dir, fmt.Sprintf("data-%d", i)), sc, cfg.seed)
	}, (*served).stop)
	if err != nil {
		return nil, fmt.Errorf("wire-mixed set-up: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			sv.stop()
		}
	}()
	heap := heapMB()

	cs := newClients(cfg.seed)
	s := &wmState{db: sv.db, lib: sv.lib, o: &oracle{}, acks: newAckLog(), conns: sv.conns,
		cl: newDCClients(sv.lib, cs, cfg.seed)}
	run := cfg
	if cfg.trace {
		// A traced run also times the same kinds in-process, for the
		// serve layer's self time: untraced, traced and in-process
		// phases take a third of the run each.
		run.seconds = cfg.seconds * 2 / 3
	}
	m := measurePhases(run, cs, s.o, 1, sv.db, sv.srv, s.op)
	if cfg.trace {
		m.extra = runPhase(cs, time.Duration(cfg.seconds/3*float64(time.Second)), 1, s.o, s.inProcess)
	}
	res, st, err := newResult(run, m, setupS, heap, s.o)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		self := func(kind string) float64 {
			return (spanP50(st, "serve."+kind) - spanP50(st, "facade."+kind)) / 1e3
		}
		setLayer(res.layer, "serve.get_self_us", self("get"))
		setLayer(res.layer, "serve.set_self_us", self("set"))
		setLayer(res.layer, "serve.txn_self_us", self("txn"))
	}

	for i := 0; i < wmQueryChecks; i++ {
		where := fmt.Sprintf("Length = %d", 1+rand.New(rand.NewSource(cfg.seed+int64(i))).Intn(lengthMax))
		s.o.check(orQuery, s.wireNaive(where))
	}
	stopped = true
	if err := sv.shutdown(); err != nil {
		sv.release()
		return nil, fmt.Errorf("drain: %w", err)
	}
	s.o.check(orDrain, checkDrained(sv.srv.Stats().Sessions, sv.db.Stats().MVCC.Pins, sv.db.Txns().LockTableStats()))
	db, err := reopenAndVerify(sv.durable, s.acks, s.o, res)
	if err != nil {
		sv.release()
		return nil, err
	}
	sv.db = db
	sv.release()
	return res, nil
}

// wireNaive compares a query answered over the wire with query.Naive on
// the database, while no client is writing.
func (s *wmState) wireNaive(where string) error {
	got, err := s.conns[0].Query(implClass, where)
	if err != nil {
		return err
	}
	e, err := expr.Parse(where)
	if err != nil {
		return err
	}
	v := s.db.SnapshotView()
	defer v.Release()
	want, err := query.Naive(query.ForSnapshot(v.Snapshot()), implClass, e)
	if err != nil {
		return err
	}
	return checkRows(got, want)
}

// wmSnapEvery makes every this-many-th operation of a client a snapshot
// open, read and close, at a fixed cadence like inherit-read's.
const wmSnapEvery = 100

func (s *wmState) op(c *client) error {
	dc, conn := s.cl[c.id], s.conns[c.id]
	dc.next++
	if c.nops%wmSnapEvery == 0 {
		return s.snap(c, dc, conn)
	}
	switch x := c.rng.Intn(100); {
	case x < 40:
		return s.get(c, dc, conn)
	case x < 60:
		return s.set(c, dc, conn)
	case x < 75:
		return s.txn(c, dc, conn)
	case x < 80:
		return s.query(c, conn)
	case x < 88:
		if len(dc.trials) >= maxTrials {
			return s.deleteOldest(c, dc, conn)
		}
		return s.newBind(c, dc, conn)
	default:
		root := c.tr.root("op.ping")
		sp := c.tr.child(root, "serve.ping")
		t0 := time.Now()
		_, err := conn.Ping(uint64(dc.next))
		d := time.Since(t0)
		c.tr.end(sp)
		c.tr.end(root)
		if err == nil {
			c.rec.add(kPing, d)
		}
		return err
	}
}

// wireCall times one request under a child span of root.
func wireCall(c *client, root int, name string, k kind, f func() error) error {
	sp := c.tr.child(root, name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	c.tr.end(sp)
	if err == nil && k >= 0 {
		c.rec.add(k, d)
	}
	return err
}

func (s *wmState) get(c *client, dc *dcClient, conn *serve.Client) error {
	impl := s.lib.impls[dc.impl.pick()]
	root := c.tr.root("op.get")
	defer c.tr.end(root)
	return wireCall(c, root, "serve.get", kRead, func() error {
		_, err := conn.GetAttr(impl, implAttrs[c.rng.Intn(len(implAttrs))])
		return err
	})
}

// set writes an interface the client owns and reads the value back
// through an implementation, both over the wire.
func (s *wmState) set(c *client, dc *dcClient, conn *serve.Client) error {
	i := dc.own[c.rng.Intn(len(dc.own))]
	attr, v := "Width", dc.value(c)
	if c.rng.Intn(2) == 0 {
		attr, v = "Length", cadcam.Int(1+c.rng.Int63n(lengthMax))
	}
	impls := s.lib.byIface[i]
	inheritor := s.lib.impls[impls[c.rng.Intn(len(impls))]]
	root := c.tr.root("op.set")
	defer c.tr.end(root)
	if err := wireCall(c, root, "serve.set", kWrite, func() error {
		return conn.SetAttr(s.lib.ifaces[i], attr, v)
	}); err != nil {
		return err
	}
	s.acks.set(s.lib.ifaces[i], attr, v)
	var got cadcam.Value
	err := wireCall(c, root, "serve.get", kRead, func() (err error) {
		got, err = conn.GetAttr(inheritor, attr)
		return err
	})
	s.o.check(orVisible, checkVisible(v, got, err))
	return nil
}

// txn is the design transaction of design-commit, over the wire.
func (s *wmState) txn(c *client, dc *dcClient, conn *serve.Client) error {
	impl, v := s.lib.impls[dc.impl.pick()], dc.value(c)
	root := c.tr.root("op.txn")
	sp := c.tr.child(root, "serve.txn")
	t0 := time.Now()
	err := wireCall(c, sp, "serve.begin", -1, func() error { _, err := conn.Begin(); return err })
	if err != nil {
		c.tr.end(sp)
		c.tr.end(root)
		return err
	}
	if err == nil {
		err = wireCall(c, sp, "serve.txn_get", -1, func() error { _, err := conn.GetAttr(impl, "Length"); return err })
	}
	if err == nil {
		err = wireCall(c, sp, "serve.txn_set", -1, func() error { return conn.SetAttr(impl, "TimeBehavior", v) })
		if err == nil {
			s.acks.set(impl, "TimeBehavior", v)
		}
	}
	if err != nil {
		c.tr.end(sp)
		c.tr.end(root)
		if aerr := conn.Abort(); aerr != nil {
			return fmt.Errorf("%w (abort: %v)", err, aerr)
		}
		return err
	}
	err = wireCall(c, sp, "serve.commit", -1, conn.Commit)
	d := time.Since(t0)
	c.tr.end(sp)
	c.tr.end(root)
	if err == nil {
		c.rec.add(kTxn, d)
	}
	return err
}

// snap opens a snapshot, reads one inherited value at it, and closes it.
func (s *wmState) snap(c *client, dc *dcClient, conn *serve.Client) error {
	impl := s.lib.impls[dc.impl.pick()]
	root := c.tr.root("op.snap")
	defer c.tr.end(root)
	t0 := time.Now()
	var h uint64
	if err := wireCall(c, root, "serve.snap_open", -1, func() (err error) { h, _, err = conn.SnapOpen(); return err }); err != nil {
		return err
	}
	err := wireCall(c, root, "serve.snap_get", kRead, func() error {
		_, err := conn.SnapGet(h, impl, implAttrs[c.rng.Intn(len(implAttrs))])
		return err
	})
	if cerr := wireCall(c, root, "serve.snap_close", -1, func() error { return conn.SnapClose(h) }); err == nil {
		err = cerr
	}
	if err == nil {
		c.rec.add(kSnap, time.Since(t0))
	}
	return err
}

func (s *wmState) query(c *client, conn *serve.Client) error {
	where := fmt.Sprintf("Length = %d", 1+c.rng.Intn(lengthMax))
	root := c.tr.root("op.query")
	defer c.tr.end(root)
	return wireCall(c, root, "serve.query", kQuery, func() error {
		_, err := conn.Query(implClass, where)
		return err
	})
}

// newBind creates an implementation and binds it to an interface the
// client owns, over the wire. deleteOldest removes it later.
func (s *wmState) newBind(c *client, dc *dcClient, conn *serve.Client) error {
	iface := s.lib.ifaces[dc.own[c.rng.Intn(len(dc.own))]]
	root := c.tr.root("op.new_bind")
	defer c.tr.end(root)
	t0 := time.Now()
	var impl cadcam.Surrogate
	err := wireCall(c, root, "serve.new", -1, func() (err error) {
		impl, err = conn.NewObject(paperschema.TypeGateImplementation, implClass)
		return err
	})
	if err != nil {
		return err
	}
	s.acks.exists(impl, true)
	if err := wireCall(c, root, "serve.bind", -1, func() error {
		_, err := conn.Bind(paperschema.RelAllOfGateInterface, impl, iface)
		return err
	}); err != nil {
		return err
	}
	c.rec.add(kStruct, time.Since(t0))
	s.acks.bound(impl, paperschema.RelAllOfGateInterface, iface)
	dc.trials = append(dc.trials, impl)
	return nil
}

// deleteOldest deletes the oldest implementation the client created, so
// the library keeps its size through the run, as in design-commit.
func (s *wmState) deleteOldest(c *client, dc *dcClient, conn *serve.Client) error {
	impl := dc.trials[0]
	root := c.tr.root("op.delete")
	defer c.tr.end(root)
	if err := wireCall(c, root, "serve.delete", kStruct, func() error { return conn.Delete(impl) }); err != nil {
		return err
	}
	dc.trials = dc.trials[1:]
	s.acks.exists(impl, false)
	s.acks.bound(impl, paperschema.RelAllOfGateInterface, 0) // the delete dropped the binding
	return nil
}

// inProcess runs the get, set and transaction kinds through the facade
// on the same database, so the traced run can subtract the engine's
// share from the wire latencies.
func (s *wmState) inProcess(c *client) error {
	dc := s.cl[c.id]
	dc.next++
	switch x := c.rng.Intn(74); {
	case x < 39:
		impl := s.lib.impls[dc.impl.pick()]
		root := c.tr.root("op.get")
		defer c.tr.end(root)
		sp := c.tr.child(root, "facade.get")
		defer c.tr.end(sp)
		return wireCall(c, sp, "object.get", kRead, func() error {
			_, err := s.db.Store().GetAttr(impl, implAttrs[c.rng.Intn(len(implAttrs))])
			return err
		})
	case x < 59:
		i := dc.own[c.rng.Intn(len(dc.own))]
		v := dc.value(c)
		root := c.tr.root("op.set")
		defer c.tr.end(root)
		if err := wireCall(c, root, "facade.set", kWrite, func() error {
			return s.db.SetAttr(s.lib.ifaces[i], "Width", v)
		}); err != nil {
			return err
		}
		s.acks.set(s.lib.ifaces[i], "Width", v)
		return nil
	default:
		root := c.tr.root("op.txn")
		sp := c.tr.child(root, "facade.txn")
		err := designTxn(c, sp, s.db, s.lib.impls[dc.impl.pick()], s.acks, dc.value(c))
		c.tr.end(root)
		return err
	}
}
