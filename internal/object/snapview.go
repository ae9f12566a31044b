package object

import (
	"fmt"
	"sort"
	"time"

	"cadcam/internal/domain"
	"cadcam/internal/schema"
)

// Snapshot reads: a Snapshot embeds the read point of its pin
// (readpoint.go), so GetAttr, Members, Env, Get, Exists, TypeOf, ModSeq,
// the binding lookups and the index probes run the store's own resolver,
// lock-free, at the pinned sequence. The resolution route cache is shared
// with live reads on the hit path: a memoized route whose stamps equal
// the pin-time epochs was valid exactly at the pin. The methods here are
// the ones with no live counterpart on the read point.

// Catalog returns the schema catalog (immutable, shared with the store).
func (sn *Snapshot) Catalog() *schema.Catalog { return sn.s.cat }

// Surrogates returns the surrogates visible at the pin, ascending.
func (sn *Snapshot) Surrogates() []domain.Surrogate { return sn.surrogates() }

// class finds a database-level class that existed at the pin.
func (sn *Snapshot) class(name string) (*Class, bool) {
	v, ok := sn.s.snapClasses.Load(name)
	if !ok || v.(*Class).createdSeq > sn.seq {
		return nil, false
	}
	return v.(*Class), true
}

// Class lists a database-level class extent at the pin.
func (sn *Snapshot) Class(name string) ([]domain.Surrogate, error) {
	c, ok := sn.class(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchClass, name)
	}
	return copySurs(c.membersAt(sn.seq)), nil
}

// ClassSize returns the member count of a database-level class at the
// pin, or -1 if it did not exist there.
func (sn *Snapshot) ClassSize(name string) int {
	c, ok := sn.class(name)
	if !ok {
		return -1
	}
	return len(c.membersAt(sn.seq))
}

// ClassNames lists the database-level classes that existed at the pin,
// sorted.
func (sn *Snapshot) ClassNames() []string {
	var names []string
	sn.s.snapClasses.Range(func(k, v any) bool {
		if v.(*Class).createdSeq <= sn.seq {
			names = append(names, k.(string))
		}
		return true
	})
	sort.Strings(names)
	return names
}

func copySurs(surs []domain.Surrogate) []domain.Surrogate {
	if len(surs) == 0 {
		return nil
	}
	return append([]domain.Surrogate(nil), surs...)
}

// Export captures the full store state as of the pin without taking any
// store lock. The result is byte-for-byte the state a serial replay of the
// journal truncated at the pinned sequence would export (for failure-free
// histories, whose surrogate counter never burns allocations).
func (sn *Snapshot) Export() *StoreState {
	st := sn.baseState(sn.seq, sn.nextSur)
	st.Objects, st.Bindings = sn.records(sn.surrogates())
	return st
}

// ExportShards captures a partitioned export as of the pin, lock-free:
// shard i carries records iff dirty[i]; marks[i] becomes its Mark. The
// checkpointer captures marks and dirtiness under the rotation lock (see
// PinCheckpoint) and encodes the records here, with writers running.
func (sn *Snapshot) ExportShards(marks []uint64, dirty []bool) *StoreExport {
	ex := &StoreExport{Base: sn.baseState(sn.seq, sn.nextSur), Shards: make([]ShardExport, len(sn.s.shards))}
	for i := range sn.s.shards {
		se := &ex.Shards[i]
		se.Mark = marks[i]
		se.Exported = dirty[i]
		if !dirty[i] {
			continue
		}
		surs := sn.shardSurrogates(i, nil)
		sort.Slice(surs, func(a, b int) bool { return surs[a] < surs[b] })
		se.Objects, se.Bindings = sn.records(surs)
	}
	return ex
}

// pinLocked registers a pin at the current sequence point. The caller
// holds all shard locks (read or write), so the pin lands between
// operations.
func (s *Store) pinLocked() *Snapshot {
	sn := &Snapshot{readPoint: readPoint{s: s, seq: s.seq.Load(), epochs: make([]uint64, len(s.shards))}}
	sn.refs.Store(1)
	sn.nextSur = s.nextSur.Load()
	for i := range s.shards {
		sn.epochs[i] = s.shards[i].epoch.Load()
	}
	m := &s.mvcc
	m.mu.Lock()
	if m.pins == nil {
		m.pins = make(map[*Snapshot]uint64)
	}
	m.pins[sn] = sn.seq
	m.taken.Add(1)
	m.recalcLocked()
	m.mu.Unlock()
	return sn
}

// PinnedCheckpoint is what PinCheckpoint captures under the store's
// exclusive lock: a pinned snapshot plus the per-shard dirty marks and
// the dirtiness verdicts against the caller's baseline. The caller
// encodes the actual records off-lock via Snap.ExportShards(Marks-order)
// and must Release the snapshot when done.
type PinnedCheckpoint struct {
	Snap  *Snapshot
	Marks []uint64
	Dirty []bool
	// LockHoldNs is the wall time the store-exclusive lock was held:
	// inLock (journal rotation) plus the mark capture and pin. The record
	// encoding this used to cover happens off-lock on the snapshot.
	LockHoldNs int64
}

// PinCheckpoint runs inLock under every shard and stripe write lock (the
// checkpointer rotates the journal there), captures each shard's dirty
// mark and its dirtiness against baseline (nil or mismatched length:
// everything dirty), and pins a snapshot — all atomically with respect to
// mutations. Writers resume as soon as it returns; the caller exports the
// dirty shards' records from the pinned snapshot concurrently with them.
// An inLock error aborts without pinning.
func (s *Store) PinCheckpoint(baseline []uint64, inLock func() error) (*PinnedCheckpoint, error) {
	s.lockAll()
	start := time.Now()
	if err := inLock(); err != nil {
		s.unlockAll()
		return nil, err
	}
	pc := &PinnedCheckpoint{
		Marks: make([]uint64, len(s.shards)),
		Dirty: make([]bool, len(s.shards)),
	}
	full := len(baseline) != len(s.shards)
	for i := range s.shards {
		pc.Marks[i] = s.shards[i].dirty.Load()
		pc.Dirty[i] = full || pc.Marks[i] != baseline[i]
	}
	pc.Snap = s.pinLocked()
	hold := time.Since(start).Nanoseconds()
	s.unlockAll()
	pc.LockHoldNs = hold
	return pc, nil
}
