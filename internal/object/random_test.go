package object_test

// Randomized property tests: apply long random operation sequences to a
// store and verify after every step that (a) the internal indexes stay
// consistent (CheckInvariants) and (b) replaying the emitted journal into
// a fresh store reproduces a byte-identical state snapshot. Snapshot pins
// come and go meanwhile, and once the last one is released the sweep must
// have left every version chain at a single node (CheckVersionsSwept).

import (
	"math/rand"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/oplog"
	"cadcam/internal/paperschema"
	"cadcam/internal/version"
	"cadcam/internal/wal"
)

// randomDriver applies valid-ish random operations; errors from the
// store are fine (rejected ops must simply leave the store consistent).
type randomDriver struct {
	rng *rand.Rand
	s   *object.Store
}

func (d *randomDriver) pick() domain.Surrogate {
	surs := d.s.Surrogates()
	if len(surs) == 0 {
		return 0
	}
	return surs[d.rng.Intn(len(surs))]
}

// step performs one random operation; returns a label for diagnostics.
func (d *randomDriver) step() string {
	switch d.rng.Intn(16) {
	case 0:
		_, _ = d.s.NewObject(paperschema.TypeGateInterfaceI, "")
		return "new-root"
	case 1:
		_, _ = d.s.NewObject(paperschema.TypeGateInterface, "")
		return "new-iface"
	case 2:
		_, _ = d.s.NewObject(paperschema.TypeGateImplementation, "")
		return "new-impl"
	case 3:
		_, _ = d.s.NewSubobject(d.pick(), "Pins")
		return "new-pin"
	case 4:
		sur := d.pick()
		_ = d.s.SetAttr(sur, "Length", domain.Int(int64(d.rng.Intn(100))))
		return "set-length"
	case 5:
		sur := d.pick()
		_ = d.s.SetAttr(sur, "InOut", domain.Sym([]string{"IN", "OUT"}[d.rng.Intn(2)]))
		return "set-inout"
	case 6:
		rel := []string{paperschema.RelAllOfGateInterfaceI, paperschema.RelAllOfGateInterface, paperschema.RelSomeOfGate}[d.rng.Intn(3)]
		_, _ = d.s.Bind(rel, d.pick(), d.pick())
		return "bind"
	case 7:
		rel := []string{paperschema.RelAllOfGateInterfaceI, paperschema.RelAllOfGateInterface}[d.rng.Intn(2)]
		_ = d.s.Unbind(rel, d.pick())
		return "unbind"
	case 8:
		_ = d.s.Delete(d.pick())
		return "delete"
	case 9:
		_, _ = d.s.Relate(paperschema.TypeWire, object.Participants{
			"Pin1": domain.Ref(d.pick()),
			"Pin2": domain.Ref(d.pick()),
		})
		return "relate"
	case 10:
		_ = d.s.Acknowledge(paperschema.RelAllOfGateInterface, d.pick())
		return "acknowledge"
	case 11:
		impl := d.pick()
		_, _ = d.s.RelateIn(impl, "Wires", object.Participants{
			"Pin1": domain.Ref(d.pick()),
			"Pin2": domain.Ref(d.pick()),
		})
		return "relate-in"
	case 12:
		_ = d.s.DefineClass("pool", paperschema.TypeGateImplementation)
		return "define-class"
	case 13:
		_, _ = d.s.NewObject(paperschema.TypeGateImplementation, "pool")
		return "new-pooled"
	case 14:
		attr := []string{"Length", "Width"}[d.rng.Intn(2)]
		_ = d.s.CreateIndex("ix"+attr, "pool", attr)
		return "create-index"
	default:
		_ = d.s.DropIndex([]string{"ixLength", "ixWidth"}[d.rng.Intn(2)])
		return "drop-index"
	}
}

// pinChurn holds up to three snapshot pins across random operations, so
// writes retain versions the sweep must later reclaim. It draws from its
// own RNG, leaving the operation sequence of a seed unchanged.
type pinChurn struct {
	rng  *rand.Rand
	pins []*object.Snapshot
}

func (p *pinChurn) step(s *object.Store) {
	switch r := p.rng.Intn(10); {
	case r == 0 && len(p.pins) < 3:
		p.pins = append(p.pins, s.Snapshot())
	case r == 1 && len(p.pins) > 0:
		i := p.rng.Intn(len(p.pins))
		p.pins[i].Release()
		p.pins = append(p.pins[:i], p.pins[i+1:]...)
	}
}

// finish releases every pin (the last release sweeps) and audits that
// nothing retained was left behind.
func (p *pinChurn) finish(t *testing.T, s *object.Store, seed int64) {
	t.Helper()
	for _, sn := range p.pins {
		sn.Release()
	}
	p.pins = nil
	if bad := s.CheckVersionsSwept(); len(bad) != 0 {
		t.Fatalf("seed %d: versions left after the last release: %v", seed, bad)
	}
}

func TestRandomOpsKeepInvariants(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1989} {
		s, err := object.NewStore(paperschema.MustGates())
		if err != nil {
			t.Fatal(err)
		}
		d := &randomDriver{rng: rand.New(rand.NewSource(seed)), s: s}
		pins := &pinChurn{rng: rand.New(rand.NewSource(-seed))}
		for i := 0; i < 400; i++ {
			pins.step(s)
			label := d.step()
			if i%20 == 0 { // invariants are O(n); sample
				if bad := s.CheckInvariants(); len(bad) != 0 {
					t.Fatalf("seed %d step %d (%s): %v", seed, i, label, bad)
				}
			}
		}
		if bad := s.CheckInvariants(); len(bad) != 0 {
			t.Fatalf("seed %d final: %v", seed, bad)
		}
		pins.finish(t, s, seed)
	}
}

func TestRandomOpsJournalReplayEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 11, 2024} {
		s, err := object.NewStore(paperschema.MustGates())
		if err != nil {
			t.Fatal(err)
		}
		var journal []*oplog.Op
		s.SetJournal(func(op *oplog.Op) {
			// Encode/decode to exercise the persistent path.
			dec, err := oplog.Decode(op.Encode())
			if err != nil {
				t.Fatalf("encode/decode: %v", err)
			}
			journal = append(journal, dec)
		})
		d := &randomDriver{rng: rand.New(rand.NewSource(seed)), s: s}
		pins := &pinChurn{rng: rand.New(rand.NewSource(-seed))}
		for i := 0; i < 400; i++ {
			pins.step(s)
			d.step()
		}
		pins.finish(t, s, seed)
		vm := version.NewManager(s)
		want := wal.EncodeSnapshot(s.Export(), vm.Export())

		s2, err := object.NewStore(paperschema.MustGates())
		if err != nil {
			t.Fatal(err)
		}
		vm2 := version.NewManager(s2)
		for i, op := range journal {
			if err := wal.Apply(op, s2, vm2, true); err != nil {
				t.Fatalf("seed %d: replaying op %d (kind %d): %v", seed, i, op.Kind, err)
			}
		}
		got := wal.EncodeSnapshot(s2.Export(), vm2.Export())
		if len(got) != len(want) {
			t.Fatalf("seed %d: snapshot sizes differ: %d vs %d (ops=%d)", seed, len(got), len(want), len(journal))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: snapshots differ at byte %d", seed, i)
			}
		}
		if bad := s2.CheckInvariants(); len(bad) != 0 {
			t.Fatalf("seed %d: replayed store inconsistent: %v", seed, bad)
		}
	}
}

func TestInvariantsOnHandBuiltScenes(t *testing.T) {
	// The structured test scenes pass the audit too.
	s, err := object.NewStore(paperschema.MustSteel())
	if err != nil {
		t.Fatal(err)
	}
	// Build a small structure by hand (mirrors the steel tests).
	gi, _ := s.NewObject(paperschema.TypeGirderInterface, "")
	_ = s.SetAttr(gi, "Length", domain.Int(500))
	_ = s.SetAttr(gi, "Height", domain.Int(20))
	_ = s.SetAttr(gi, "Width", domain.Int(10))
	bore, _ := s.NewSubobject(gi, "Bores")
	_ = s.SetAttr(bore, "Diameter", domain.Int(10))
	st, _ := s.NewObject(paperschema.TypeStructure, "")
	g, _ := s.NewSubobject(st, "Girders")
	if _, err := s.Bind(paperschema.RelAllOfGirderIf, g, gi); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RelateIn(st, "Screwings", object.Participants{
		"Bores": domain.NewSet(domain.Ref(bore)),
	}); err != nil {
		t.Fatal(err)
	}
	if bad := s.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("steel scene: %v", bad)
	}
	// After deleting the structure the audit still passes.
	if err := s.Delete(st); err != nil {
		t.Fatal(err)
	}
	if bad := s.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("after delete: %v", bad)
	}
}
