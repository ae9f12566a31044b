package object

import (
	"fmt"
	"sort"

	"cadcam/internal/domain"
)

// A read point is the state a read resolves against. Live store reads,
// pinned snapshot reads and index maintenance all run the one resolver in
// this file (§4: an inherited member has one definition, evaluated against
// whatever state is read). A read point says three things:
//
//   - seq: the sequence point version chains are read at. liveSeq reads
//     every chain at its head, the live state; a snapshot reads at its pin.
//   - epochs: the shard structure epochs a memoized route must match to be
//     followed. nil compares against the current epochs; a snapshot keeps
//     the epochs of its pin, so a route whose stamps match them described
//     the pinned topology exactly.
//   - memo: whether a slow-path resolution is stored in the route cache.
//     Only the store's own reads memoize: a snapshot's resolution describes
//     the pinned past, and index maintenance may resolve an object on a
//     shard whose lock the writer does not hold.
//
// Live and pinned reads differ only inside the accessors below: object
// lookup and enumeration, binding lookup, class membership, the epochs a
// route is checked against, and whether a read by surrogate must freeze
// topology with a shard lock. The walks themselves branch only on memo,
// to collect the chain a memoized route records. Attribute slots,
// bookkeeping and modSeq are read with their at(seq) accessors, which
// return the head at liveSeq.
type readPoint struct {
	s      *Store
	seq    uint64
	epochs []uint64
	memo   bool
}

// liveSeq reads a version chain at its head: the live state.
const liveSeq = ^uint64(0)

// pinned reports whether the read point is a snapshot pin.
func (rp *readPoint) pinned() bool { return rp.epochs != nil }

// freeze prepares a read by surrogate on sh. A live read takes sh's read
// lock, which freezes topology store-wide (see shard); a pinned read walks
// immutable versions and needs none. Reports whether the caller must
// release the lock.
func (rp *readPoint) freeze(sh *shard) bool {
	if rp.pinned() {
		return false
	}
	sh.mu.RLock()
	return true
}

// obj finds the object visible at the read point. A live lookup needs a
// shard lock held (any shard: topology is frozen store-wide).
func (rp *readPoint) obj(sur domain.Surrogate) (*Object, bool) {
	sh := rp.s.shardOf(sur)
	if !rp.pinned() {
		o, ok := sh.objects[sur]
		return o, ok
	}
	v, ok := sh.snapObjs.Load(sur)
	if !ok || !v.(*Object).visibleAt(rp.seq) {
		return nil, false
	}
	return v.(*Object), true
}

// shardSurrogates appends the surrogates of shard i visible at the read
// point, unordered.
func (rp *readPoint) shardSurrogates(i int, out []domain.Surrogate) []domain.Surrogate {
	sh := &rp.s.shards[i]
	if !rp.pinned() {
		for sur := range sh.objects {
			out = append(out, sur)
		}
		return out
	}
	sh.snapObjs.Range(func(k, v any) bool {
		if v.(*Object).visibleAt(rp.seq) {
			out = append(out, k.(domain.Surrogate))
		}
		return true
	})
	return out
}

// surrogates returns every surrogate visible at the read point, ascending.
// A live read needs every shard lock held.
func (rp *readPoint) surrogates() []domain.Surrogate {
	var out []domain.Surrogate
	for i := range rp.s.shards {
		out = rp.shardSurrogates(i, out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// bindingsIn returns the inheritor's bindings at the read point, keyed by
// relationship type (shared: callers must not mutate the map).
func (rp *readPoint) bindingsIn(inheritor domain.Surrogate) map[string]*Binding {
	sh := rp.s.shardOf(inheritor)
	if !rp.pinned() {
		return sh.byInheritor[inheritor]
	}
	v, ok := sh.snapBindIn.Load(inheritor)
	if !ok {
		return nil
	}
	return v.(*ibChain).at(rp.seq)
}

// bindingsOut returns the transmitter's bindings at the read point
// (shared: callers must not mutate the slice).
func (rp *readPoint) bindingsOut(transmitter domain.Surrogate) []*Binding {
	sh := rp.s.shardOf(transmitter)
	if !rp.pinned() {
		return sh.byTransmitter[transmitter]
	}
	v, ok := sh.snapBindOut.Load(transmitter)
	if !ok {
		return nil
	}
	return v.(*tbChain).at(rp.seq)
}

// copyMembers copies a class's membership at the read point; a nil class
// reads empty.
func (rp *readPoint) copyMembers(c *Class) []domain.Surrogate {
	switch {
	case c == nil:
		return nil
	case !rp.pinned():
		return copySurs(c.items())
	}
	return copySurs(c.membersAt(rp.seq))
}

// transmitter follows the inheritor's binding under relType to the
// transmitter visible at the read point; nil while unbound.
func (rp *readPoint) transmitter(inheritor domain.Surrogate, relType string) *Object {
	b := rp.bindingsIn(inheritor)[relType]
	if b == nil {
		return nil
	}
	t, _ := rp.obj(b.Transmitter)
	return t
}

// route returns the memoized attribute (or, with members, subclass) route
// for (sur, name) from sh, sur's shard, if the read point may follow it:
// every shard its chain crosses has the epoch the read point compares
// against (the current one live, the pin-time one pinned). A followed
// route counts as a cache hit.
func (rp *readPoint) route(sh *shard, members bool, sur domain.Surrogate, name string) (*route, bool) {
	routes := &sh.routes.attrs
	if members {
		routes = &sh.routes.members
	}
	v, ok := routes.Load().Load(routeKey{sur, name})
	if !ok {
		return nil, false
	}
	r := v.(*route)
	if rp.pinned() {
		for _, st := range r.stamps {
			if rp.epochs[st.shard] != st.epoch {
				return nil, false
			}
		}
	} else {
		for _, st := range r.stamps {
			if rp.s.shards[st.shard].epoch.Load() != st.epoch {
				return nil, false
			}
		}
	}
	sh.hits.Add(1)
	return r, true
}

// memoize records a slow-path resolution in sur's attribute (or, with
// members, subclass) route cache when the read point memoizes, and
// returns the route (nil otherwise). Callers hold a shard lock, so no
// epoch can move and the stamps are exact.
func (rp *readPoint) memoize(members bool, sur domain.Surrogate, name string, owner *Object, cls *Class, chain []domain.Surrogate) *route {
	if !rp.memo {
		return nil
	}
	r := &route{stamps: rp.s.stampChain(chain), owner: owner, cls: cls, chain: chain}
	sh := rp.s.shardOf(sur)
	routes := &sh.routes.attrs
	if members {
		routes = &sh.routes.members
	}
	routes.Load().Store(routeKey{sur, name}, r)
	sh.routes.stored.Add(1)
	sh.misses.Add(1)
	return r
}

// ---------------------------------------------------------------------------
// Reads by surrogate

// lookup finds an object by surrogate, freezing topology for the lookup
// alone: identity fields are immutable and slots publish atomically.
func (rp *readPoint) lookup(sur domain.Surrogate) (*Object, bool) {
	sh := rp.s.shardOf(sur)
	if rp.freeze(sh) {
		defer sh.mu.RUnlock()
	}
	return rp.obj(sur)
}

// Exists reports whether the surrogate denotes an object at the read point.
func (rp *readPoint) Exists(sur domain.Surrogate) bool {
	_, ok := rp.lookup(sur)
	return ok
}

// TypeOf returns the type name of an object.
func (rp *readPoint) TypeOf(sur domain.Surrogate) (string, error) {
	o, err := rp.Get(sur)
	if err != nil {
		return "", err
	}
	return o.typeName, nil
}

// Get returns the object for a surrogate. The result must be treated as
// read-only; only its immutable identity accessors (Surrogate, TypeName,
// IsRelationship, Parent, ParentSubclass) are meaningful at a pin.
func (rp *readPoint) Get(sur domain.Surrogate) (*Object, error) {
	o, ok := rp.lookup(sur)
	if !ok {
		return nil, noObject(sur)
	}
	return o, nil
}

// ModSeq returns the store sequence of the object's last direct mutation
// as of the read point; 0 if it was never mutated since creation. Long
// transactions use it for optimistic checkin validation.
func (rp *readPoint) ModSeq(sur domain.Surrogate) (uint64, error) {
	o, err := rp.Get(sur)
	if err != nil {
		return 0, err
	}
	return o.modAt(rp.seq), nil
}

// BindingsOfInheritor returns the bindings in which the object is the
// inheritor, keyed by relationship type name.
func (rp *readPoint) BindingsOfInheritor(inheritor domain.Surrogate) map[string]*Binding {
	sh := rp.s.shardOf(inheritor)
	if rp.freeze(sh) {
		defer sh.mu.RUnlock()
	}
	set := rp.bindingsIn(inheritor)
	out := make(map[string]*Binding, len(set))
	for k, v := range set {
		out[k] = v
	}
	return out
}

// BindingsOfTransmitter returns the bindings in which the object is the
// transmitter (its inheritors).
func (rp *readPoint) BindingsOfTransmitter(transmitter domain.Surrogate) []*Binding {
	sh := rp.s.shardOf(transmitter)
	if rp.freeze(sh) {
		defer sh.mu.RUnlock()
	}
	return append([]*Binding(nil), rp.bindingsOut(transmitter)...)
}

// GetAttr reads an attribute with the paper's resolution rule: own
// attributes come from the object itself; inherited attributes are read
// through the binding from the transmitter (view semantics — never a
// copy), or read as null while unbound (type-level inheritance only).
//
// The hit path is lock-free: a memoized route the read point may follow
// names the object whose own attribute slot holds the value, and that
// slot is read at the read point's sequence — so transmitter updates are
// visible immediately after a hit, while any structural change forces the
// slow path through the epoch check.
func (rp *readPoint) GetAttr(sur domain.Surrogate, name string) (domain.Value, error) {
	sh := rp.s.shardOf(sur)
	if r, ok := rp.route(sh, false, sur, name); ok {
		if r.owner == nil {
			return domain.NullValue, nil
		}
		return r.owner.attrAt(name, rp.seq), nil
	}
	if rp.freeze(sh) {
		defer sh.mu.RUnlock()
	}
	o, ok := rp.obj(sur)
	if !ok {
		return nil, noObject(sur)
	}
	return rp.attr(o, name)
}

// Members returns the member surrogates of a local subclass or
// relationship subclass, following inheritance for subclasses the object's
// type inherits (the interface's Pins seen from the implementation).
//
// Like GetAttr, the hit path is lock-free: a members route points at the
// owner's materialized class, whose membership is published atomically.
// Routes exist only for names that resolve as (possibly inherited)
// subclasses; sub-relationship and relationship-object reads always take
// the slow path, so a route can never shadow them.
func (rp *readPoint) Members(sur domain.Surrogate, name string) ([]domain.Surrogate, error) {
	sh := rp.s.shardOf(sur)
	if r, ok := rp.route(sh, true, sur, name); ok {
		return rp.copyMembers(r.cls), nil
	}
	if rp.freeze(sh) {
		defer sh.mu.RUnlock()
	}
	o, ok := rp.obj(sur)
	if !ok {
		return nil, noObject(sur)
	}
	return rp.members(o, name)
}

// ---------------------------------------------------------------------------
// Resolution (callers have frozen topology: a live read holds a shard lock)

// attrAt reads the object's own attribute slot at sequence point seq; an
// absent or tombstoned slot reads as null.
func (o *Object) attrAt(name string, seq uint64) domain.Value {
	if b, ok := o.attrMap()[name]; ok {
		if v, ok := b.at(seq); ok {
			return v
		}
	}
	return domain.NullValue
}

// attr reads a name on an object: the Surrogate pseudo-attribute, a
// relationship object's attribute, or an own or inherited attribute.
func (rp *readPoint) attr(o *Object, name string) (domain.Value, error) {
	if name == "Surrogate" {
		return domain.Ref(o.sur), nil
	}
	if o.isRel {
		return rp.relAttr(o, name)
	}
	v, _, err := rp.resolveAttr(o, name)
	return v, err
}

// resolveAttr walks the inheritance chain from o to the object owning the
// attribute. The chain ends at the owner (the value is read from its slot)
// or unbound (the read is null until a Bind — which bumps the inheritor's
// shard epoch — changes that). Both outcomes are memoized when the read
// point memoizes; unknown attributes are not, and keep their error. The
// walk crosses shards freely: topology is frozen store-wide.
func (rp *readPoint) resolveAttr(o *Object, name string) (domain.Value, *route, error) {
	var chain []domain.Surrogate
	for cur := o; ; {
		if rp.memo {
			chain = append(chain, cur.sur)
		}
		eff, err := rp.s.effectiveLocked(cur)
		if err != nil {
			return nil, nil, err
		}
		a, ok := eff.Attr(name)
		if !ok {
			return nil, nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, cur.typeName, name)
		}
		if !a.Inherited() {
			return cur.attrAt(name, rp.seq), rp.memoize(false, o.sur, name, cur, nil, chain), nil
		}
		if cur = rp.transmitter(cur.sur, a.Via); cur == nil {
			return domain.NullValue, rp.memoize(false, o.sur, name, nil, nil, chain), nil
		}
	}
}

// relAttr reads a relationship object's attribute: participant roles
// (immutable), the binding bookkeeping, then user-declared attributes.
func (rp *readPoint) relAttr(o *Object, name string) (domain.Value, error) {
	if v, ok := o.participants[name]; ok {
		return v, nil
	}
	if o.book != nil {
		switch name {
		case AttrTransmitterUpdates, AttrLastUpdateSeq, AttrAcknowledgedSeq:
			upd, last, ack := o.book.at(rp.seq)
			switch name {
			case AttrTransmitterUpdates:
				return domain.Int(upd), nil
			case AttrLastUpdateSeq:
				return domain.Int(last), nil
			default:
				return domain.Int(ack), nil
			}
		}
	}
	if b, ok := o.attrMap()[name]; ok {
		if v, ok := b.at(rp.seq); ok {
			return v, nil
		}
	}
	// Verify the name is declared before returning null (O(1) via the
	// catalog's precomputed attribute index).
	if _, ok := rp.s.cat.RelAttr(o.typeName, name); ok {
		return domain.NullValue, nil
	}
	if _, ok := rp.s.cat.InherRelType(o.typeName); ok {
		switch name {
		case AttrTransmitterUpdates, AttrLastUpdateSeq, AttrAcknowledgedSeq:
			return domain.Int(0), nil
		}
	}
	return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttribute, o.typeName, name)
}

// members lists a subclass or sub-relationship of an object.
func (rp *readPoint) members(o *Object, name string) ([]domain.Surrogate, error) {
	if cls, ok := o.relMap()[name]; ok {
		return rp.copyMembers(cls), nil
	}
	if o.isRel {
		if cls, ok := o.subMap()[name]; ok {
			return rp.copyMembers(cls), nil
		}
		if rp.s.cat.RelMemberName(o.typeName, name) {
			return nil, nil // declared but empty
		}
		return nil, fmt.Errorf("%w: %s has no subclass %q", ErrNoSuchClass, o.typeName, name)
	}
	cls, _, err := rp.resolveMembers(o, name)
	if err != nil {
		return nil, err
	}
	return rp.copyMembers(cls), nil
}

// resolveMembers walks the inheritance chain for a subclass name to the
// owner's materialized class (nil: unbound, or not materialized yet —
// materialization bumps the owner's shard epoch, invalidating the route).
// A declared sub-relationship with no members yet resolves to nil without
// a route: materializing it bumps no epoch.
func (rp *readPoint) resolveMembers(o *Object, name string) (*Class, *route, error) {
	var chain []domain.Surrogate
	for cur := o; ; {
		if rp.memo {
			chain = append(chain, cur.sur)
		}
		eff, err := rp.s.effectiveLocked(cur)
		if err != nil {
			return nil, nil, err
		}
		sd, ok := eff.SubclassByName(name)
		if !ok {
			for _, sr := range eff.Type.SubRels {
				if sr.Name == name {
					return nil, nil, nil // declared but no members yet
				}
			}
			return nil, nil, fmt.Errorf("%w: %s has no subclass %q", ErrNoSuchClass, cur.typeName, name)
		}
		if !sd.Inherited() {
			cls := cur.subMap()[name]
			return cls, rp.memoize(true, o.sur, name, nil, cls, chain), nil
		}
		if cur = rp.transmitter(cur.sur, sd.Via); cur == nil {
			// Unbound: structure without members.
			return nil, rp.memoize(true, o.sur, name, nil, nil, chain), nil
		}
	}
}

// collection resolves a name as a collection on an object: a set-of or
// single participant role, a local subclass or sub-relationship
// (following inheritance), or a set/list-valued attribute.
func (rp *readPoint) collection(o *Object, name string) ([]domain.Value, bool) {
	if o.isRel {
		if v, ok := o.participants[name]; ok {
			if set, isSet := v.(*domain.Set); isSet {
				return set.Elems(), true
			}
			return []domain.Value{v}, true
		}
	}
	if members, err := rp.members(o, name); err == nil {
		return refs(members), true
	}
	if v, err := rp.attr(o, name); err == nil {
		switch x := v.(type) {
		case *domain.Set:
			return x.Elems(), true
		case *domain.List:
			return x.Elems(), true
		}
	}
	return nil, false
}

func refs(surs []domain.Surrogate) []domain.Value {
	out := make([]domain.Value, len(surs))
	for i, m := range surs {
		out[i] = domain.Ref(m)
	}
	return out
}

// ---------------------------------------------------------------------------
// Secondary indexes

// Indexes lists the index definitions maintained at the read point's
// sequence, sorted by name. A dropped index stays planable for pins taken
// before the drop: it was maintained for their whole window.
func (rp *readPoint) Indexes() []IndexDef {
	reg := rp.s.indexes.Load()
	if reg == nil {
		return nil
	}
	var out []IndexDef
	for _, ix := range reg.list {
		if ix.covers(rp.seq) {
			out = append(out, IndexDef{Name: ix.name, ClassName: ix.className, AttrName: ix.attrName, CreatedSeq: ix.createdSeq})
		}
	}
	return out
}

// index finds an index over (className, attrName) maintained at the read
// point's sequence.
func (rp *readPoint) index(className, attrName string) *attrIndex {
	reg := rp.s.indexes.Load()
	if reg == nil {
		return nil
	}
	for _, ix := range reg.list {
		if ix.className == className && ix.attrName == attrName && ix.covers(rp.seq) {
			return ix
		}
	}
	return nil
}

// IndexProbe returns the candidate members whose indexed attribute value
// lies within [lo, hi] (nil = unbounded; bounds inclusive — see inRange)
// as of the read point, from an index over (className, attrName) that was
// maintained there. The second result is false when no such index exists
// or a bound is not an indexable scalar. Candidates are ascending by
// surrogate and a superset of the true matches (bounds are widened);
// callers re-apply the full predicate.
func (rp *readPoint) IndexProbe(className, attrName string, lo, hi domain.Value) ([]domain.Surrogate, bool) {
	ix := rp.index(className, attrName)
	if ix == nil {
		return nil, false
	}
	return ix.probe(lo, hi, rp.seq)
}

// IndexEstimate counts candidates in range without materializing them —
// the planner's costing probe. Returns -1 when no usable index.
func (rp *readPoint) IndexEstimate(className, attrName string, lo, hi domain.Value) int {
	ix := rp.index(className, attrName)
	if ix == nil {
		return -1
	}
	return ix.estimate(lo, hi)
}

// ---------------------------------------------------------------------------
// Export

// baseState captures the classes and index definitions visible at the
// read point, with the given counters; no object or binding records.
func (rp *readPoint) baseState(seq, nextSur uint64) *StoreState {
	st := &StoreState{NextSur: nextSur, Seq: seq}
	classes := make(map[string]*Class)
	rp.s.snapClasses.Range(func(k, v any) bool {
		if c := v.(*Class); c.createdSeq <= rp.seq {
			classes[k.(string)] = c
		}
		return true
	})
	for _, name := range sortedNames(classes) {
		st.Classes = append(st.Classes, ClassRecord{Name: name, ElemType: classes[name].elemType})
	}
	for _, d := range rp.Indexes() {
		st.Indexes = append(st.Indexes, IndexRecord(d))
	}
	return st
}

// records captures the given surrogates' object and binding records as
// visible at the read point (deep copies, in the given order).
func (rp *readPoint) records(surs []domain.Surrogate) (objs []ObjectRecord, bindings []BindingRecord) {
	for _, sur := range surs {
		o, _ := rp.obj(sur)
		if o.binding != nil {
			bindings = append(bindings, bindingRecord(sur, o.binding, rp.seq))
			continue
		}
		objs = append(objs, objectRecord(o, rp.seq))
	}
	return objs, bindings
}
