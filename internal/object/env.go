package object

import (
	"cadcam/internal/domain"
	"cadcam/internal/expr"
)

// Env returns an expr.Env evaluating names against the given object:
// attributes (own and inherited), local subclasses, sub-relationships and
// participant roles. Version-selection queries, user-level constraint
// checks and the query planner use it. A live env takes the read object's
// shard read lock per slow-path read, so it must not be used from inside
// store operations (lockedEnv serves those); values read through other
// shards are loaded atomically per value, and the view is not a
// store-wide snapshot. A snapshot's env reads everything at its pin.
func (rp *readPoint) Env(sur domain.Surrogate) expr.Env {
	return env{rp: rp, sur: sur}
}

type env struct {
	rp  *readPoint
	sur domain.Surrogate
}

func (e env) Lookup(name string) (domain.Value, bool) {
	v, err := e.rp.GetAttr(e.sur, name)
	return v, err == nil
}

func (e env) Collection(name string) ([]domain.Value, bool) {
	sh := e.rp.s.shardOf(e.sur)
	if r, ok := e.rp.route(sh, true, e.sur, name); ok {
		// Members routes exist only on non-relationship objects, so no
		// participant role can shadow the subclass.
		return refs(e.rp.copyMembers(r.cls)), true
	}
	if e.rp.freeze(sh) {
		defer sh.mu.RUnlock()
	}
	o, ok := e.rp.obj(e.sur)
	if !ok {
		return nil, false
	}
	return e.rp.collection(o, name)
}

func (e env) AttrOf(ref domain.Ref, attr string) (domain.Value, bool) {
	return env{rp: e.rp, sur: domain.Surrogate(ref)}.Lookup(attr)
}

func (e env) CollectionOf(ref domain.Ref, name string) ([]domain.Value, bool) {
	return env{rp: e.rp, sur: domain.Surrogate(ref)}.Collection(name)
}

// lockedEnv is the live env for code already holding a shard lock (any
// shard lock freezes topology store-wide, and attribute slots publish
// atomically, so chain walks may cross shards). It backs constraint
// checking inside store operations.
type lockedEnv struct {
	s *Store
	o *Object
}

func (e *lockedEnv) Lookup(name string) (domain.Value, bool) {
	v, err := e.s.live.attr(e.o, name)
	return v, err == nil
}

func (e *lockedEnv) Collection(name string) ([]domain.Value, bool) {
	return e.s.live.collection(e.o, name)
}

func (e *lockedEnv) AttrOf(ref domain.Ref, attr string) (domain.Value, bool) {
	o, ok := e.s.obj(domain.Surrogate(ref))
	if !ok {
		return nil, false
	}
	v, err := e.s.live.attr(o, attr)
	return v, err == nil
}

func (e *lockedEnv) CollectionOf(ref domain.Ref, name string) ([]domain.Value, bool) {
	o, ok := e.s.obj(domain.Surrogate(ref))
	if !ok {
		return nil, false
	}
	return e.s.live.collection(o, name)
}

// Env returns an expr.Env evaluating names against the given object at
// the live state; see readPoint.Env.
func (s *Store) Env(sur domain.Surrogate) expr.Env { return s.live.Env(sur) }

// ClassEnv returns an expr.Env over the database-level classes, for
// queries that scan class extents (e.g. top-down version selection).
func (s *Store) ClassEnv() expr.Env { return &classEnv{s: s} }

type classEnv struct{ s *Store }

func (e *classEnv) Lookup(string) (domain.Value, bool) { return nil, false }

func (e *classEnv) Collection(name string) ([]domain.Value, bool) {
	stripe := e.s.stripeOf(name)
	stripe.mu.RLock()
	cls, ok := stripe.classes[name]
	stripe.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return refs(cls.items()), true
}

func (e *classEnv) AttrOf(ref domain.Ref, attr string) (domain.Value, bool) {
	return env{rp: &e.s.live, sur: domain.Surrogate(ref)}.Lookup(attr)
}

func (e *classEnv) CollectionOf(ref domain.Ref, name string) ([]domain.Value, bool) {
	return env{rp: &e.s.live, sur: domain.Surrogate(ref)}.Collection(name)
}
