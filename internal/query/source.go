// Package query plans and executes predicate queries over database-level
// class extents. A query is a class name plus a constraint-language
// predicate; the planner chooses between a secondary-index probe, an
// adaptive route-cache probe and a plain class-member scan, and EXPLAIN
// renders the choice with its cost estimates.
package query

import (
	"cadcam/internal/domain"
	"cadcam/internal/expr"
	"cadcam/internal/object"
)

// Source abstracts the two things a query can run against: the live
// store and a pinned snapshot. Both expose class extents, per-object
// expression environments and the index probes the planner costs with;
// *object.Store and *object.Snapshot implement it directly.
type Source interface {
	// Class returns the extent of a database-level class.
	Class(name string) ([]domain.Surrogate, error)
	// ClassSize returns the extent size, or -1 if no such class.
	ClassSize(name string) int
	// Env returns an expr.Env evaluating names against one object.
	Env(sur domain.Surrogate) expr.Env
	// Indexes lists the secondary-index definitions usable here.
	Indexes() []object.IndexDef
	// IndexProbe returns candidate members whose indexed attribute lies
	// in [lo, hi] (nil = open; bounds inclusive), ascending by surrogate.
	// Candidates are a superset of the true matches; the runner
	// re-applies the predicate and keeps their order.
	IndexProbe(className, attrName string, lo, hi domain.Value) ([]domain.Surrogate, bool)
	// IndexEstimate counts candidates in range, or -1 if no usable index.
	IndexEstimate(className, attrName string, lo, hi domain.Value) int
}

// ChainSource is the optional interface behind the route-cache probe: it
// resolves which object actually owns the value an attribute resolves to
// on a member (the end of its inheritance chain). Members sharing an
// owner share the value, so a predicate over that one attribute needs
// evaluating only once per distinct owner. The live store implements it;
// a snapshot does not, so snapshot queries never plan a route probe.
type ChainSource interface {
	ChainOwner(sur domain.Surrogate, member string) (domain.Surrogate, bool)
}

var (
	_ Source      = (*object.Store)(nil)
	_ Source      = (*object.Snapshot)(nil)
	_ ChainSource = (*object.Store)(nil)
)

// ForStore returns the live store as a query source. The store holds no
// locks across rows: every row evaluation takes (and releases) its
// object's shard read lock on a route-cache miss, so concurrent writers
// are never blocked for the duration of a query.
func ForStore(s *object.Store) Source { return s }

// ForSnapshot returns a pinned snapshot as a query source: extents,
// attribute values and index probes are all served as of the pin's
// sequence point, so a query sees one consistent state no matter how
// long it runs or what writers do meanwhile.
func ForSnapshot(sn *object.Snapshot) Source { return sn }
