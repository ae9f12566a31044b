package object

// Multi-version concurrency control: copy-on-write version chains.
//
// Every mutable slot that a snapshot reader may traverse — attribute
// slots, per-object modification sequences, binding bookkeeping, the
// binding indexes and class membership — is a chain of immutable version
// nodes stamped with the operation's global sequence number (oplog.Op.Seq).
// A Snapshot pins a store-wide sequence point S; a reader at S walks a
// chain from the head to the first node with at <= S, lock-free, while
// writers keep prepending new heads at full speed.
//
// Chains stay short without pins: a writer consults the pin ceiling (the
// highest pinned sequence) and *replaces* the head when no pin can still
// read it (head.at > ceiling), reusing the head's tail — so with zero pins
// every chain is exactly one node, the legacy in-place behaviour. With k
// live pins a slot accumulates at most one retained node per distinct pin
// sequence. Every write that keeps an old head for a pin queues the
// slot's owner on its shard's work list (retain); a low-water-mark sweep
// (SweepVersions) trims only the queued owners, so its cost follows what
// the pins retained, not the size of the store.
//
// Correctness of "first node with at <= S": a pin's sequence S is read
// under all shard read locks, so every operation is entirely before the
// pin (seq <= S, fully published) or entirely after (seq > S). Chains may
// interleave nodes of commuting cross-shard operations out of sequence
// order, but all nodes a reader at S skips were published after its pin
// and all nodes at or below its stop point were published before it.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"cadcam/internal/domain"
	"cadcam/internal/schema"
)

// ---------------------------------------------------------------------------
// Attribute slots

// aver is one version of an attribute slot. v == nil is a tombstone: the
// attribute was removed (set to null) at sequence at. prev is atomic only
// so the sweep can cut tails under a reader walking the chain; nodes are
// otherwise immutable once published.
type aver struct {
	at   uint64
	v    *domain.Value
	prev atomic.Pointer[aver]
}

// attrBox is one attribute slot: a version chain plus the memoized schema
// declaration. The head is swapped atomically so the lock-free resolution
// cache hit path (and cross-shard expression evaluation) reads a
// consistent value without synchronization, while a writer holding only
// its own shard lock publishes in place — no whole-map copy per write.
type attrBox struct {
	head atomic.Pointer[aver]
	// decl memoizes the schema declaration this slot was validated
	// against, letting repeated writes skip the effective-type lookups.
	// Accessed only under the owning shard's write lock.
	decl *schema.EffAttr
}

func newAttrBoxAt(v domain.Value, at uint64) *attrBox {
	b := &attrBox{}
	b.head.Store(&aver{at: at, v: &v})
	return b
}

// load returns the live (head) value; ok is false on a tombstone head.
func (b *attrBox) load() (domain.Value, bool) {
	h := b.head.Load()
	if h == nil || h.v == nil {
		return nil, false
	}
	return *h.v, true
}

// at returns the value visible at sequence point s (absent if the slot
// did not exist, or held a tombstone, at s). Lock-free.
func (b *attrBox) at(s uint64) (domain.Value, bool) {
	for n := b.head.Load(); n != nil; n = n.prev.Load() {
		if n.at <= s {
			if n.v == nil {
				return nil, false
			}
			return *n.v, true
		}
	}
	return nil, false
}

// put publishes a new version stamped at. ceil is the current pin
// ceiling: the old head is kept on the chain only if a pin may still read
// it (head.at <= ceil); otherwise the new head reuses the old tail, so an
// unpinned slot never grows. Serialized by the owning shard's write lock.
// Reports whether the chain grew.
func (b *attrBox) put(at uint64, v *domain.Value, ceil uint64) bool {
	h := b.head.Load()
	n := &aver{at: at, v: v}
	grew := false
	if h != nil {
		if h.at <= ceil && h.at < at {
			n.prev.Store(h)
			grew = true
		} else {
			n.prev.Store(h.prev.Load())
		}
	}
	b.head.Store(n)
	return grew
}

// ---------------------------------------------------------------------------
// Per-object modification sequence

// mver is one retained historic modSeq value (the value IS at: modSeq is
// always set to the mutating operation's sequence).
type mver struct {
	at   uint64
	prev atomic.Pointer[mver]
}

// pushModSeq advances the object's modSeq to seq, retaining the previous
// value on the history chain while a pin may still read it. Serialized by
// the owning shard's write lock (or the all-shard lock).
func (o *Object) pushModSeq(seq, ceil uint64) bool {
	cur := o.modSeq.Load()
	grew := false
	if cur != 0 && cur <= ceil && cur < seq {
		n := &mver{at: cur}
		n.prev.Store(o.modPrev.Load())
		o.modPrev.Store(n)
		grew = true
	}
	o.modSeq.Store(seq)
	return grew
}

// modAt returns the modification sequence visible at s.
func (o *Object) modAt(s uint64) uint64 {
	if cur := o.modSeq.Load(); cur <= s {
		return cur
	}
	for n := o.modPrev.Load(); n != nil; n = n.prev.Load() {
		if n.at <= s {
			return n.at
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// Binding bookkeeping

// bookNode is one version of a binding's system bookkeeping. Values are
// absolute (not deltas); concurrent cross-shard pushes converge through a
// CAS loop on the head, so the head always reflects every push published
// so far even when nodes land out of sequence order.
type bookNode struct {
	at   uint64
	upd  int64
	last int64
	ack  int64
	prev atomic.Pointer[bookNode]
}

// bindingBook holds the system bookkeeping of one inheritance binding as
// a version chain. Transmitter updates fan out across shards while the
// writer holds only its own shard lock, so pushes must commute: each push
// derives the new absolutes from the current head and retries on CAS
// failure — concurrent updates reach the same final head in any order,
// which journal replay depends on.
type bindingBook struct {
	head atomic.Pointer[bookNode]
}

// now returns the live bookkeeping values.
func (bk *bindingBook) now() (upd, last, ack int64) {
	if h := bk.head.Load(); h != nil {
		return h.upd, h.last, h.ack
	}
	return 0, 0, 0
}

// at returns the bookkeeping values visible at sequence point s.
func (bk *bindingBook) at(s uint64) (upd, last, ack int64) {
	for n := bk.head.Load(); n != nil; n = n.prev.Load() {
		if n.at <= s {
			return n.upd, n.last, n.ack
		}
	}
	return 0, 0, 0
}

// push publishes new absolutes derived from the current head by f,
// stamped at. Keep/replace of the old head follows the same ceiling rule
// as attribute slots. Reports whether the chain grew, and whether the new
// head has a tail at all: the sweep trims this chain holding only the
// owner's shard lock, so a concurrent replacing push may relink a node
// the sweep just cut, and its owner must then stay queued.
func (bk *bindingBook) push(at, ceil uint64, f func(upd, last, ack int64) (int64, int64, int64)) (grew, tail bool) {
	for {
		h := bk.head.Load()
		var upd, last, ack int64
		if h != nil {
			upd, last, ack = h.upd, h.last, h.ack
		}
		u, l, a := f(upd, last, ack)
		n := &bookNode{at: at, upd: u, last: l, ack: a}
		grew = false
		if h != nil {
			if h.at <= ceil && h.at < at {
				n.prev.Store(h)
				grew = true
			} else {
				n.prev.Store(h.prev.Load())
			}
		}
		if bk.head.CompareAndSwap(h, n) {
			return grew, n.prev.Load() != nil
		}
	}
}

// pushBook advances the bookkeeping of binding object o at seq and keeps
// o queued for the sweep while the chain has a tail.
func (s *Store) pushBook(o *Object, seq uint64, f func(upd, last, ack int64) (int64, int64, int64)) {
	grew, tail := o.book.push(seq, s.ceiling(), f)
	switch {
	case grew:
		s.retain(s.shardOf(o.sur), o)
	case tail:
		s.shardOf(o.sur).work.push(o)
	}
}

// noteUpdate records one permeable transmitter update at seq on binding
// object o.
func (s *Store) noteUpdate(o *Object, seq uint64) {
	s.pushBook(o, seq, func(upd, last, ack int64) (int64, int64, int64) {
		if int64(seq) > last {
			last = int64(seq)
		}
		return upd + 1, last, ack
	})
}

// acknowledge raises o's AcknowledgedSeq to at least ack, at op sequence
// seq.
func (s *Store) acknowledge(o *Object, seq uint64, ack int64) {
	s.pushBook(o, seq, func(u, l, a int64) (int64, int64, int64) {
		if ack > a {
			a = ack
		}
		return u, l, a
	})
}

// seed installs the base version (Import).
func (bk *bindingBook) seed(upd, last, ack int64) {
	bk.head.Store(&bookNode{at: 0, upd: upd, last: last, ack: ack})
}

// ---------------------------------------------------------------------------
// Binding indexes

// ibVer is one version of an inheritor's binding set (rel-type name ->
// binding). The set map is immutable once published.
type ibVer struct {
	at   uint64
	set  map[string]*Binding
	prev atomic.Pointer[ibVer]
}

// ibChain versions one inheritor's bindings for snapshot readers. Pushed
// under the all-shard lock (every binding mutation is store-exclusive).
// key is the inheritor, so the sweep can unlink a chain that emptied.
type ibChain struct {
	head   atomic.Pointer[ibVer]
	key    domain.Surrogate
	queued atomic.Bool
}

func (c *ibChain) push(at, ceil uint64, set map[string]*Binding) bool {
	h := c.head.Load()
	n := &ibVer{at: at, set: set}
	grew := false
	if h != nil {
		if h.at <= ceil && h.at < at {
			n.prev.Store(h)
			grew = true
		} else {
			n.prev.Store(h.prev.Load())
		}
	}
	c.head.Store(n)
	return grew
}

func (c *ibChain) at(s uint64) map[string]*Binding {
	for n := c.head.Load(); n != nil; n = n.prev.Load() {
		if n.at <= s {
			return n.set
		}
	}
	return nil
}

// tbVer / tbChain: the transmitter-side index (binding list), same rules.
type tbVer struct {
	at   uint64
	list []*Binding
	prev atomic.Pointer[tbVer]
}

type tbChain struct {
	head   atomic.Pointer[tbVer]
	key    domain.Surrogate
	queued atomic.Bool
}

func (c *tbChain) push(at, ceil uint64, list []*Binding) bool {
	h := c.head.Load()
	n := &tbVer{at: at, list: list}
	grew := false
	if h != nil {
		if h.at <= ceil && h.at < at {
			n.prev.Store(h)
			grew = true
		} else {
			n.prev.Store(h.prev.Load())
		}
	}
	c.head.Store(n)
	return grew
}

func (c *tbChain) at(s uint64) []*Binding {
	for n := c.head.Load(); n != nil; n = n.prev.Load() {
		if n.at <= s {
			return n.list
		}
	}
	return nil
}

// snapPushBindIn publishes the inheritor's current binding set to its
// snapshot chain at sequence at. Callers hold all shard write locks.
func (s *Store) snapPushBindIn(inheritor domain.Surrogate, at uint64) {
	sh := s.shardOf(inheritor)
	live := sh.byInheritor[inheritor]
	ceil := s.ceiling()
	if ceil == 0 && len(live) == 0 {
		// No pin can read the old set and the new one is empty: drop the key.
		sh.snapBindIn.Delete(inheritor)
		return
	}
	set := make(map[string]*Binding, len(live))
	for k, v := range live {
		set[k] = v
	}
	v, _ := sh.snapBindIn.LoadOrStore(inheritor, &ibChain{key: inheritor})
	c := v.(*ibChain)
	if c.push(at, ceil, set) {
		s.retain(sh, c)
	} else if len(live) == 0 {
		// An empty head a pin may still distinguish from an absent key:
		// the sweep drops the key once no pin can.
		sh.work.push(c)
	}
}

// snapPushBindOut is snapPushBindIn for the transmitter-side index.
func (s *Store) snapPushBindOut(transmitter domain.Surrogate, at uint64) {
	sh := s.shardOf(transmitter)
	live := sh.byTransmitter[transmitter]
	ceil := s.ceiling()
	if ceil == 0 && len(live) == 0 {
		sh.snapBindOut.Delete(transmitter)
		return
	}
	list := append([]*Binding(nil), live...)
	v, _ := sh.snapBindOut.LoadOrStore(transmitter, &tbChain{key: transmitter})
	c := v.(*tbChain)
	if c.push(at, ceil, list) {
		s.retain(sh, c)
	} else if len(live) == 0 {
		sh.work.push(c)
	}
}

// ---------------------------------------------------------------------------
// Class membership history

// cver is one version of a class's membership. The slice is the class's
// published COW membership slice at commit time — shared, never copied.
type cver struct {
	at      uint64
	members []domain.Surrogate
	prev    atomic.Pointer[cver]
}

// pushHist publishes the class's current membership at sequence at.
// Callers hold all shard and stripe write locks (membership only changes
// store-exclusively).
func (c *Class) pushHist(at, ceil uint64) bool {
	h := c.hist.Load()
	n := &cver{at: at, members: c.items()}
	grew := false
	if h != nil {
		if h.at <= ceil && h.at < at {
			n.prev.Store(h)
			grew = true
		} else {
			n.prev.Store(h.prev.Load())
		}
	}
	c.hist.Store(n)
	return grew
}

// membersAt returns the membership visible at s. A nil history means the
// membership never changed after the base state (creation or import), so
// the live slice is the answer for every pinnable s; an exhausted walk
// means the class was first populated after s.
func (c *Class) membersAt(s uint64) []domain.Surrogate {
	h := c.hist.Load()
	if h == nil {
		return c.items()
	}
	for n := h; n != nil; n = n.prev.Load() {
		if n.at <= s {
			return n.members
		}
	}
	return nil
}

// touchClass records a class whose membership the running store-exclusive
// operation is about to mutate; commitClassHist publishes one history
// version per touched class at the operation's sequence. Guarded by the
// all-shard lock (single mutator).
//
// Callers touch before they mutate: a class with no history answers
// snapshot readers from its live slice, so while a pin is live the
// pre-mutation membership is seeded as the base version first — otherwise
// a lock-free reader between the live change and commitClassHist would
// see a member created after its pin. With no pin nothing is seeded: any
// later pin is taken after the operation and reads the live slice.
func (s *Store) touchClass(c *Class) {
	for _, t := range s.touched {
		if t == c {
			return
		}
	}
	if c.hist.Load() == nil && s.ceiling() > 0 {
		c.hist.Store(&cver{at: 0, members: c.items()})
	}
	s.touched = append(s.touched, c)
}

func (s *Store) commitClassHist(seq uint64) {
	if len(s.touched) != 0 {
		ceil := s.ceiling()
		for _, c := range s.touched {
			if c.pushHist(seq, ceil) {
				s.retain(s.storeShard(), c)
			}
		}
		s.touched = s.touched[:0]
	}
	s.idxCommit(seq)
}

// abortClassTouches drops the touch set after a rolled-back operation
// (the live membership was restored, so no history version is due), and
// the queued index maintenance with it.
func (s *Store) abortClassTouches() {
	s.touched = s.touched[:0]
	s.idxAbort()
}

// publishObj stamps a newly created object with its creating sequence and
// makes it visible to snapshot readers. Called at the operation's commit
// point, under the locks the creation ran under, so a snapshot pinned
// before the operation never observes it mid-flight.
func (s *Store) publishObj(o *Object, seq uint64) {
	o.createdSeq = seq
	s.shardOf(o.sur).snapObjs.Store(o.sur, o)
}

// retireObj marks an object deleted at seq for snapshot readers. With no
// live pin the snapshot entry is dropped eagerly (nothing can read it and
// any later pin sees a higher sequence); otherwise the entry stays dead
// until the sweep reclaims it. Callers hold the store-exclusive lock.
func (s *Store) retireObj(o *Object, seq uint64) {
	sh := s.shardOf(o.sur)
	if s.ceiling() == 0 {
		sh.snapObjs.Delete(o.sur)
		return
	}
	o.deletedSeq.Store(seq)
	s.retain(sh, o)
}

// visibleAt reports whether the object existed at sequence point s.
func (o *Object) visibleAt(s uint64) bool {
	if o.createdSeq > s {
		return false
	}
	d := o.deletedSeq.Load()
	return d == 0 || d > s
}

// ---------------------------------------------------------------------------
// Sweep work lists

// sweepable is an owner of version state kept alive for a pin: an object
// (its attribute slots, modSeq history, binding bookkeeping and, once
// deleted, its snapshot entry), a binding-index chain, a class history,
// an index posting, or a dropped index.
type sweepable interface {
	// flag returns the owner's on-a-list mark, so an owner is queued at
	// most once; nil for owners queued once per retention.
	flag() *atomic.Bool
	// trim reclaims what no pin at or above low can read. The sweep holds
	// the write lock of the shard whose list the owner was on.
	trim(s *Store, low uint64) trimmed
}

// trimmed is one owner's sweep outcome.
type trimmed struct {
	extras uint64 // surviving non-head version nodes
	rec    uint64 // reclaimed nodes, slots and objects
	dead   uint64 // deleted objects a live pin still sees
	// keep: the owner still holds something a live pin needs, or a
	// tombstone or empty head the sweep may drop later, so it goes back
	// on the list.
	keep bool
}

// workList is one shard's queue of owners to sweep. Every owner with a
// non-head version node, a pinned dead object, a retained index interval
// or a pending tombstone is on some list — that is what lets the sweep
// skip everything else and still leave ExtraVersions/DeadObjects exact.
// Writers push under whatever lock their mutation holds (bookkeeping and
// postings may be pushed by a writer on another shard), hence mu.
type workList struct {
	mu    sync.Mutex
	items []sweepable
	n     atomic.Int64 // len(items), for the lock-free pending check
}

// push queues x unless it is already queued.
func (w *workList) push(x sweepable) {
	if f := x.flag(); f != nil && (f.Load() || !f.CompareAndSwap(false, true)) {
		return
	}
	w.mu.Lock()
	w.items = append(w.items, x)
	w.n.Store(int64(len(w.items)))
	w.mu.Unlock()
}

// take empties the list and returns its items.
func (w *workList) take() []sweepable {
	w.mu.Lock()
	items := w.items
	w.items = nil
	w.n.Store(0)
	w.mu.Unlock()
	return items
}

// retain counts one version node (or dead object) kept alive for a pin
// and queues its owner on sh's work list. Every retention site goes
// through here.
func (s *Store) retain(sh *shard, x sweepable) {
	sh.retained.Add(1)
	sh.work.push(x)
}

// storeShard is the shard whose list holds the store-wide owners: class
// histories and dropped indexes. Both change only under every shard
// lock, so holding this one shard's lock excludes their writers while the
// sweep trims them.
func (s *Store) storeShard() *shard { return &s.shards[0] }

func (o *Object) flag() *atomic.Bool  { return &o.queued }
func (c *Class) flag() *atomic.Bool   { return &c.queued }
func (c *ibChain) flag() *atomic.Bool { return &c.queued }
func (c *tbChain) flag() *atomic.Bool { return &c.queued }

// trim unlinks the object from the snapshot index once no pin sees it
// deleted, and otherwise trims its attribute slots, modSeq history and
// binding bookkeeping, dropping slots whose whole history is a tombstone
// no pin distinguishes from absence.
func (o *Object) trim(s *Store, low uint64) (t trimmed) {
	if d := o.deletedSeq.Load(); d != 0 {
		if d <= low {
			s.shardOf(o.sur).snapObjs.CompareAndDelete(o.sur, o)
			t.rec = 1
			return t
		}
		t.dead = 1
	}
	var tombs []string
	for name, b := range o.attrMap() {
		e, r := trimChain(b.head.Load(), low)
		t.extras += e
		t.rec += r
		if h := b.head.Load(); h.v == nil {
			if e == 0 && h.at <= low && t.dead == 0 {
				tombs = append(tombs, name)
			} else {
				t.keep = true
			}
		}
	}
	if len(tombs) > 0 {
		o.removeBoxes(tombs)
		t.rec += uint64(len(tombs))
	}
	if h := o.modPrev.Load(); h != nil {
		if o.modSeq.Load() <= low {
			o.modPrev.Store(nil)
			t.rec += chainLen(h)
		} else {
			e, r := trimChain(h, low)
			t.extras += e + 1
			t.rec += r
		}
	}
	if o.book != nil {
		e, r := trimChain(o.book.head.Load(), low)
		t.extras += e
		t.rec += r
	}
	t.keep = t.keep || t.extras > 0 || t.dead > 0
	return t
}

func (c *Class) trim(_ *Store, low uint64) (t trimmed) {
	t.extras, t.rec = trimChain(c.hist.Load(), low)
	t.keep = t.extras > 0
	return t
}

// trim drops the inheritor's key once its chain is a single empty set no
// pin can tell from an absent one.
func (c *ibChain) trim(s *Store, low uint64) (t trimmed) {
	t.extras, t.rec = trimChain(c.head.Load(), low)
	if h := c.head.Load(); h != nil && len(h.set) == 0 {
		if t.extras == 0 && h.at <= low {
			s.shardOf(c.key).snapBindIn.CompareAndDelete(c.key, c)
		} else {
			t.keep = true
		}
	}
	t.keep = t.keep || t.extras > 0
	return t
}

func (c *tbChain) trim(s *Store, low uint64) (t trimmed) {
	t.extras, t.rec = trimChain(c.head.Load(), low)
	if h := c.head.Load(); h != nil && len(h.list) == 0 {
		if t.extras == 0 && h.at <= low {
			s.shardOf(c.key).snapBindOut.CompareAndDelete(c.key, c)
		} else {
			t.keep = true
		}
	}
	t.keep = t.keep || t.extras > 0
	return t
}

// versionNode is a chain node type: its stamp and its link to the next
// older node.
type versionNode[T any] interface {
	*T
	stamp() uint64
	older() *atomic.Pointer[T]
}

func (n *aver) stamp() uint64                        { return n.at }
func (n *aver) older() *atomic.Pointer[aver]         { return &n.prev }
func (n *mver) stamp() uint64                        { return n.at }
func (n *mver) older() *atomic.Pointer[mver]         { return &n.prev }
func (n *bookNode) stamp() uint64                    { return n.at }
func (n *bookNode) older() *atomic.Pointer[bookNode] { return &n.prev }
func (n *cver) stamp() uint64                        { return n.at }
func (n *cver) older() *atomic.Pointer[cver]         { return &n.prev }
func (n *ibVer) stamp() uint64                       { return n.at }
func (n *ibVer) older() *atomic.Pointer[ibVer]       { return &n.prev }
func (n *tbVer) stamp() uint64                       { return n.at }
func (n *tbVer) older() *atomic.Pointer[tbVer]       { return &n.prev }

// trimChain cuts a chain below the first node readable at low (every
// remaining pin has S >= low, so nothing deeper is reachable). Returns
// the surviving non-head nodes and the reclaimed ones.
func trimChain[T any, N versionNode[T]](head N, low uint64) (extras, rec uint64) {
	if head == nil {
		return 0, 0
	}
	for n := head; n != nil; n = n.older().Load() {
		if n.stamp() <= low {
			rec = chainLen(N(n.older().Load()))
			n.older().Store(nil)
			break
		}
	}
	return chainLen(N(head.older().Load())), rec
}

// chainLen counts the nodes of a chain from n.
func chainLen[T any, N versionNode[T]](n N) uint64 {
	var c uint64
	for ; n != nil; n = n.older().Load() {
		c++
	}
	return c
}

// ---------------------------------------------------------------------------
// Snapshot pins

// mvccState is the store's pin registry and GC bookkeeping.
type mvccState struct {
	mu   sync.Mutex
	pins map[*Snapshot]uint64

	// ceilA is the highest pinned sequence (0: none) — the write-side
	// "keep the old head" test. lowA is the lowest pinned sequence
	// (MaxUint64: none) — the sweep's low-water mark.
	ceilA atomic.Uint64
	lowA  atomic.Uint64

	taken    atomic.Uint64
	released atomic.Uint64

	gcMu       sync.Mutex // admits one sweep; TryLock paces overlapping triggers
	gcRuns     atomic.Uint64
	reclaimed  atomic.Uint64
	extraGauge atomic.Uint64 // residual non-head version nodes at the last sweep
	deadGauge  atomic.Uint64 // residual dead (deleted but pinned) objects at the last sweep
}

func (m *mvccState) recalcLocked() {
	var ceil uint64
	low := uint64(math.MaxUint64)
	for _, s := range m.pins {
		if s > ceil {
			ceil = s
		}
		if s < low {
			low = s
		}
	}
	m.ceilA.Store(ceil)
	m.lowA.Store(low)
}

// ceiling returns the highest pinned sequence (0 when nothing is pinned).
// Writers consult it on every chain put; reads are a single atomic load.
func (s *Store) ceiling() uint64 { return s.mvcc.ceilA.Load() }

// lowWater returns the lowest pinned sequence (MaxUint64 when nothing is
// pinned): versions only a lower sequence point could read are garbage.
func (s *Store) lowWater() uint64 { return s.mvcc.lowA.Load() }

// Snapshot is a pinned store-wide sequence point. All read methods
// traverse version chains lock-free at the pinned sequence; writers are
// never blocked by a live snapshot, they only retain old versions for it.
// Release the snapshot (refcounted) to let the sweep reclaim them.
type Snapshot struct {
	s       *Store
	seq     uint64
	nextSur uint64
	// epochs are the per-shard structure epochs at pin time: a memoized
	// resolution route whose stamps match them was valid exactly at the
	// pin, so snapshot reads may reuse the live route cache.
	epochs []uint64
	refs   atomic.Int64
}

// Snapshot pins the current sequence point. It briefly takes all shard
// read locks (the same order every writer uses), so the pin lands between
// operations: every op is entirely visible or entirely invisible.
func (s *Store) Snapshot() *Snapshot {
	s.rlockAll()
	sn := s.pinLocked()
	s.runlockAll()
	return sn
}

// Seq returns the pinned sequence point.
func (sn *Snapshot) Seq() uint64 { return sn.seq }

// NextSur returns the surrogate counter at the pin.
func (sn *Snapshot) NextSur() uint64 { return sn.nextSur }

// Acquire adds a reference; every Acquire needs a matching Release.
func (sn *Snapshot) Acquire() *Snapshot {
	sn.refs.Add(1)
	return sn
}

// Release drops one reference; the last release unpins the sequence point
// and, if no other pin remains and a work list is non-empty, sweeps.
func (sn *Snapshot) Release() {
	if sn.refs.Add(-1) != 0 {
		return
	}
	s := sn.s
	m := &s.mvcc
	m.mu.Lock()
	delete(m.pins, sn)
	m.released.Add(1)
	m.recalcLocked()
	remaining := len(m.pins)
	m.mu.Unlock()
	if remaining == 0 && s.sweepPending() {
		s.SweepVersions()
	}
}

// sweepPending reports whether any shard's work list holds an owner.
func (s *Store) sweepPending() bool {
	for i := range s.shards {
		if s.shards[i].work.n.Load() != 0 {
			return true
		}
	}
	return false
}

// MVCCStats reports the snapshot-pin and version-chain counters.
type MVCCStats struct {
	Pins          int64  `json:"pins"`           // live pins right now
	Taken         uint64 `json:"taken"`          // snapshots pinned, lifetime
	Released      uint64 `json:"released"`       // snapshots fully released, lifetime
	Retained      uint64 `json:"retained"`       // version nodes kept alive for a pin, lifetime
	Reclaimed     uint64 `json:"reclaimed"`      // nodes and dead objects freed by sweeps
	GCRuns        uint64 `json:"gc_runs"`        // completed sweeps
	ExtraVersions uint64 `json:"extra_versions"` // non-head version nodes left after the last sweep
	DeadObjects   uint64 `json:"dead_objects"`   // deleted-but-pinned objects left after the last sweep
	LowWater      uint64 `json:"low_water"`      // current sweep low-water mark (MaxUint64: no pins)
}

func (s *Store) mvccStats() MVCCStats {
	m := &s.mvcc
	m.mu.Lock()
	pins := int64(len(m.pins))
	m.mu.Unlock()
	var retained uint64
	for i := range s.shards {
		retained += s.shards[i].retained.Load()
	}
	return MVCCStats{
		Pins:          pins,
		Taken:         m.taken.Load(),
		Released:      m.released.Load(),
		Retained:      retained,
		Reclaimed:     m.reclaimed.Load(),
		GCRuns:        m.gcRuns.Load(),
		ExtraVersions: m.extraGauge.Load(),
		DeadObjects:   m.deadGauge.Load(),
		LowWater:      m.lowA.Load(),
	}
}

// ---------------------------------------------------------------------------
// Version sweep (GC)

// SweepVersions trims the owners on every shard's work list to the
// low-water mark over the live pins, unlinks deleted objects no pin can
// still see, and puts back the owners a live pin still needs. With no
// pins it restores the single-version-per-slot steady state. Its cost
// follows what the pins retained, not the size of the store. It takes one
// shard write lock at a time (never the store-exclusive lock), so it runs
// concurrently with reads and with writers on other shards. Returns the
// number of reclaimed nodes/objects; 0 if another sweep is running.
func (s *Store) SweepVersions() uint64 {
	if !s.mvcc.gcMu.TryLock() {
		return 0
	}
	defer s.mvcc.gcMu.Unlock()
	low := s.lowWater()
	var sum trimmed
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.work.n.Load() == 0 {
			continue
		}
		sh.mu.Lock()
		for _, x := range sh.work.take() {
			// Unmark before trimming: a concurrent retention either lands
			// before the trim reads the chain or queues x afresh.
			if f := x.flag(); f != nil {
				f.Store(false)
			}
			t := x.trim(s, low)
			sum.extras += t.extras
			sum.rec += t.rec
			sum.dead += t.dead
			if t.keep {
				sh.work.push(x)
			}
		}
		sh.mu.Unlock()
	}
	m := &s.mvcc
	m.extraGauge.Store(sum.extras)
	m.deadGauge.Store(sum.dead)
	m.reclaimed.Add(sum.rec)
	m.gcRuns.Add(1)
	return sum.rec
}

// removeBoxes drops attribute slots whose whole history is a tombstone
// (COW map swap, safe under the owning shard's write lock).
func (o *Object) removeBoxes(names []string) {
	old := o.attrMap()
	m := make(map[string]*attrBox, len(old))
	for k, b := range old {
		drop := false
		for _, n := range names {
			if n == k {
				drop = true
				break
			}
		}
		if !drop {
			m[k] = b
		}
	}
	o.attrs.Store(&m)
}

// seedSnapshotState publishes the base (at = 0) versions after an import:
// every object, binding index entry and populated class becomes visible
// to any snapshot at its imported state. Callers hold all locks.
func (s *Store) seedSnapshotState() {
	for i := range s.shards {
		sh := &s.shards[i]
		for sur, o := range sh.objects {
			sh.snapObjs.Store(sur, o)
			for _, c := range o.subMap() {
				if c.Len() > 0 && c.hist.Load() == nil {
					c.pushHist(0, 0)
				}
			}
			for _, c := range o.relMap() {
				if c.Len() > 0 && c.hist.Load() == nil {
					c.pushHist(0, 0)
				}
			}
		}
		for sur := range sh.byInheritor {
			s.snapPushBindIn(sur, 0)
		}
		for sur := range sh.byTransmitter {
			s.snapPushBindOut(sur, 0)
		}
	}
	for i := range s.stripes {
		for name, c := range s.stripes[i].classes {
			s.snapClasses.Store(name, c)
			if c.Len() > 0 && c.hist.Load() == nil {
				c.pushHist(0, 0)
			}
		}
	}
}

// surrogatesAt returns the surrogates visible at the pinned sequence, in
// ascending order.
func (sn *Snapshot) surrogatesAt() []domain.Surrogate {
	var out []domain.Surrogate
	for i := range sn.s.shards {
		sn.s.shards[i].snapObjs.Range(func(k, v any) bool {
			if v.(*Object).visibleAt(sn.seq) {
				out = append(out, k.(domain.Surrogate))
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
