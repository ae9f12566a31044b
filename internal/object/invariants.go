package object

import (
	"fmt"

	"cadcam/internal/domain"
)

// CheckInvariants audits the store's internal index consistency and
// returns a description of every violation found (empty = healthy). It
// is meant for tests, fuzzing harnesses and post-recovery verification;
// it holds every shard and stripe read lock for its whole run.
//
// Invariants checked:
//
//  1. class membership is symmetric: every member of a database class
//     exists and knows its owner class, and vice versa;
//  2. parent/subclass linkage is symmetric for subobjects and local
//     relationship members;
//  3. every binding is indexed consistently by inheritor and by
//     transmitter, its endpoints exist, and its relationship object is
//     registered;
//  4. binding graphs are acyclic (value inheritance terminates);
//  5. the participant index matches the participants actually stored on
//     relationship objects, in both directions;
//  6. no allocated surrogate exceeds the allocation counter;
//  7. every object lives in the shard its surrogate hashes to;
//  8. every live secondary index agrees with a fresh resolution of each
//     member's attribute value (inherited values included).
func (s *Store) CheckInvariants() []string {
	s.rlockAll()
	defer s.runlockAll()
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	// 1. database classes <-> ownerClass.
	for i := range s.stripes {
		for name, cls := range s.stripes[i].classes {
			for _, m := range cls.items() {
				o, ok := s.obj(m)
				if !ok {
					report("class %q holds dead member %s", name, m)
					continue
				}
				if o.ownerClass != name {
					report("class %q holds %s whose ownerClass is %q", name, m, o.ownerClass)
				}
			}
		}
	}
	forEachObject := func(f func(sur domain.Surrogate, o *Object)) {
		for i := range s.shards {
			for sur, o := range s.shards[i].objects {
				f(sur, o)
			}
		}
	}
	forEachObject(func(sur domain.Surrogate, o *Object) {
		if o.ownerClass != "" {
			cls, ok := s.lookupClass(o.ownerClass)
			if !ok || !cls.Contains(sur) {
				report("%s claims class %q but is not a member", sur, o.ownerClass)
			}
		}
	})

	// 2. parent/subclass symmetry.
	forEachObject(func(sur domain.Surrogate, o *Object) {
		if o.parent != 0 {
			po, ok := s.obj(o.parent)
			if !ok {
				report("%s has dead parent %s", sur, o.parent)
			} else {
				in := false
				if cls, ok := po.subMap()[o.parentSub]; ok && cls.Contains(sur) {
					in = true
				}
				if cls, ok := po.relMap()[o.parentSub]; ok && cls.Contains(sur) {
					in = true
				}
				if !in {
					report("%s claims parent %s subclass %q but is not a member", sur, o.parent, o.parentSub)
				}
			}
		}
		for name, cls := range o.subMap() {
			for _, m := range cls.items() {
				mo, ok := s.obj(m)
				if !ok {
					report("%s subclass %q holds dead member %s", sur, name, m)
					continue
				}
				if mo.parent != sur || mo.parentSub != name {
					report("%s subclass %q member %s has parent %s/%q", sur, name, m, mo.parent, mo.parentSub)
				}
			}
		}
		for name, cls := range o.relMap() {
			for _, m := range cls.items() {
				mo, ok := s.obj(m)
				if !ok {
					report("%s subrel %q holds dead member %s", sur, name, m)
					continue
				}
				if !mo.isRel {
					report("%s subrel %q member %s is not a relationship", sur, name, m)
				}
			}
		}
	})

	// 3. binding index symmetry.
	for i := range s.shards {
		for inh, m := range s.shards[i].byInheritor {
			if s.shardIndex(inh) != i {
				report("inheritor index for %s lives in shard %d, expected %d", inh, i, s.shardIndex(inh))
			}
			for rel, b := range m {
				if b.Inheritor != inh || b.Rel.Name != rel {
					report("binding index mismatch at (%s, %s)", inh, rel)
				}
				if _, ok := s.obj(b.Obj.sur); !ok {
					report("binding object %s not registered", b.Obj.sur)
				}
				if b.Obj.book == nil {
					report("binding object %s has no bookkeeping", b.Obj.sur)
				}
				if _, ok := s.obj(b.Transmitter); !ok {
					report("binding %s has dead transmitter %s", b.Obj.sur, b.Transmitter)
				}
				if _, ok := s.obj(b.Inheritor); !ok {
					report("binding %s has dead inheritor %s", b.Obj.sur, b.Inheritor)
				}
				found := false
				for _, tb := range s.shardOf(b.Transmitter).byTransmitter[b.Transmitter] {
					if tb == b {
						found = true
						break
					}
				}
				if !found {
					report("binding %s missing from transmitter index", b.Obj.sur)
				}
			}
		}
		for trans, list := range s.shards[i].byTransmitter {
			if s.shardIndex(trans) != i {
				report("transmitter index for %s lives in shard %d, expected %d", trans, i, s.shardIndex(trans))
			}
			for _, b := range list {
				if b.Transmitter != trans {
					report("transmitter index mismatch at %s", trans)
				}
				if ib := s.bindingLocked(b.Inheritor, b.Rel.Name); ib != b {
					report("binding %s missing from inheritor index", b.Obj.sur)
				}
			}
		}
	}

	// 4. acyclicity: walk transmitter edges from every inheritor.
	for i := range s.shards {
		for inh := range s.shards[i].byInheritor {
			if s.reachesLocked(inh, inh) {
				report("binding cycle through %s", inh)
			}
		}
	}

	// 5. participant index in both directions.
	for i := range s.shards {
		for part, rels := range s.shards[i].relsByParticipant {
			if s.shardIndex(part) != i {
				report("participant index for %s lives in shard %d, expected %d", part, i, s.shardIndex(part))
			}
			for rel := range rels {
				ro, ok := s.obj(rel)
				if !ok {
					report("participant index holds dead relationship %s", rel)
					continue
				}
				if !ro.isRel {
					report("participant index holds non-relationship %s", rel)
					continue
				}
				if !refersTo(ro.participants, part) {
					report("relationship %s indexed for %s but does not reference it", rel, part)
				}
			}
		}
	}
	forEachObject(func(sur domain.Surrogate, o *Object) {
		if !o.isRel || o.participants == nil {
			return
		}
		// Binding objects are indexed via byInheritor/byTransmitter, not
		// the participant index.
		if _, isInher := s.cat.InherRelType(o.typeName); isInher {
			return
		}
		var check func(v domain.Value)
		check = func(v domain.Value) {
			switch x := v.(type) {
			case domain.Ref:
				if !s.shardOf(domain.Surrogate(x)).relsByParticipant[domain.Surrogate(x)][sur] {
					report("relationship %s references %s without index entry", sur, x)
				}
			case *domain.Set:
				for _, e := range x.Elems() {
					check(e)
				}
			}
		}
		for _, v := range o.participants {
			check(v)
		}
	})

	// 6. surrogate allocation; 7. shard placement.
	next := s.nextSur.Load()
	for i := range s.shards {
		for sur := range s.shards[i].objects {
			if uint64(sur) > next {
				report("surrogate %s exceeds allocation counter %d", sur, next)
			}
			if s.shardIndex(sur) != i {
				report("%s stored in shard %d, expected %d", sur, i, s.shardIndex(sur))
			}
		}
	}

	// 8. secondary indexes match freshly-resolved attribute values.
	s.idxAudit(report)
	return bad
}

func refersTo(parts map[string]domain.Value, target domain.Surrogate) bool {
	var found bool
	var walk func(v domain.Value)
	walk = func(v domain.Value) {
		switch x := v.(type) {
		case domain.Ref:
			if domain.Surrogate(x) == target {
				found = true
			}
		case *domain.Set:
			for _, e := range x.Elems() {
				walk(e)
			}
		}
	}
	for _, v := range parts {
		walk(v)
	}
	return found
}

// CheckVersionsSwept audits that the sweep work lists left nothing
// behind: with no live pin and after a sweep, every version chain is a
// single node (no tombstone attribute head, no empty binding-index head),
// no object holds modSeq history, the snapshot index holds no dead
// object, no index posting is a closed interval, and every work list is
// empty. A retention site that forgets to queue its owner leaves a chain
// the sweep never visits, which this reports. It only checks; it never
// sweeps. It holds every shard and stripe read lock for its whole run.
func (s *Store) CheckVersionsSwept() []string {
	s.rlockAll()
	defer s.runlockAll()
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	if p := s.mvccStats().Pins; p != 0 {
		return []string{fmt.Sprintf("%d pins live: the audit needs none", p)}
	}
	classChain := func(owner string, c *Class) {
		if n := chainLen(c.hist.Load()); n > 1 {
			report("%s class %q history has %d nodes", owner, c.name, n)
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		if n := sh.work.n.Load(); n != 0 {
			report("shard %d work list holds %d owners", i, n)
		}
		for sur, o := range sh.objects {
			for name, b := range o.attrMap() {
				h := b.head.Load()
				if n := chainLen(h); n != 1 {
					report("%s.%s has %d versions", sur, name, n)
				} else if h.v == nil {
					report("%s.%s keeps a tombstone", sur, name)
				}
			}
			if o.modPrev.Load() != nil {
				report("%s keeps modSeq history", sur)
			}
			if o.book != nil {
				if n := chainLen(o.book.head.Load()); n > 1 {
					report("binding %s bookkeeping has %d versions", sur, n)
				}
			}
			for _, c := range o.subMap() {
				classChain(sur.String(), c)
			}
			for _, c := range o.relMap() {
				classChain(sur.String(), c)
			}
		}
		sh.snapObjs.Range(func(k, v any) bool {
			if v.(*Object).deletedSeq.Load() != 0 {
				report("snapshot index keeps dead object %s", k)
			}
			return true
		})
		sh.snapBindIn.Range(func(k, v any) bool {
			h := v.(*ibChain).head.Load()
			if n := chainLen(h); n != 1 || len(h.set) == 0 {
				report("inheritor chain of %s: %d versions, head empty %v", k, n, n > 0 && len(h.set) == 0)
			}
			return true
		})
		sh.snapBindOut.Range(func(k, v any) bool {
			h := v.(*tbChain).head.Load()
			if n := chainLen(h); n != 1 || len(h.list) == 0 {
				report("transmitter chain of %s: %d versions, head empty %v", k, n, n > 0 && len(h.list) == 0)
			}
			return true
		})
	}
	for i := range s.stripes {
		for _, c := range s.stripes[i].classes {
			classChain("database", c)
		}
	}
	if reg := s.indexes.Load(); reg != nil {
		for _, ix := range reg.list {
			for i := range ix.parts {
				p := &ix.parts[i]
				p.mu.Lock()
				for _, m := range p.buckets {
					for sur, n := range m {
						if ix.dropped() != 0 || n.removed != 0 || n.prev != nil {
							report("index %q keeps a closed posting for %s", ix.name, sur)
						}
					}
				}
				p.mu.Unlock()
			}
		}
	}
	return bad
}
