package model_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cadcam/internal/codec"
	"cadcam/internal/domain"
	"cadcam/internal/model"
	"cadcam/internal/object"
	"cadcam/internal/oplog"
	"cadcam/internal/paperschema"
	"cadcam/internal/version"
	"cadcam/internal/wal"
)

// TestModelMatchesStoreRandom runs a random operation mix against a real
// in-memory store while capturing its journal, replays the journal
// (encode/decode round-tripped, as recovery would see it) into the model,
// and requires byte-identical snapshots plus agreeing read resolution.
func TestModelMatchesStoreRandom(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1989} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDiff(t, seed, 800)
		})
	}
}

func runDiff(t *testing.T, seed int64, steps int) {
	t.Helper()
	cat := paperschema.MustGates()
	st, err := object.NewStore(cat)
	if err != nil {
		t.Fatal(err)
	}
	var records [][]byte
	st.SetJournal(func(op *oplog.Op) { records = append(records, op.Encode()) })

	rng := rand.New(rand.NewSource(seed))
	w := &walker{rng: rng, st: st}
	// Snapshot pins come and go on their own RNG (the operation sequence
	// of a seed is unchanged), so writes retain versions; once the last
	// pin is released the sweep must have left nothing behind.
	pinRng := rand.New(rand.NewSource(-seed))
	var pins []*object.Snapshot
	for i := 0; i < steps; i++ {
		switch r := pinRng.Intn(10); {
		case r == 0 && len(pins) < 3:
			pins = append(pins, st.Snapshot())
		case r == 1 && len(pins) > 0:
			j := pinRng.Intn(len(pins))
			pins[j].Release()
			pins = append(pins[:j], pins[j+1:]...)
		}
		w.step()
	}
	for _, sn := range pins {
		sn.Release()
	}
	if bad := st.CheckVersionsSwept(); len(bad) != 0 {
		t.Fatalf("versions left after the last release: %v", bad)
	}
	if w.successes < steps/4 {
		t.Fatalf("only %d/%d operations succeeded; generator is ineffective", w.successes, steps)
	}

	m := model.New(cat)
	for i, rec := range records {
		op, err := oplog.Decode(rec)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if err := m.Apply(op); err != nil {
			t.Fatalf("record %d (kind %d): model diverged: %v", i, op.Kind, err)
		}
	}

	vs := &version.ManagerState{}
	got := wal.EncodeSnapshot(st.Export(), vs)
	want := wal.EncodeSnapshot(m.Export(), vs)
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot mismatch after %d ops: store %d bytes, model %d bytes",
			len(records), len(got), len(want))
	}

	// Read resolution must agree on every live object and probe name.
	probes := []string{"Length", "Width", "TimeBehavior", "SimSlot", "PinId", "InOut"}
	classes := []string{"Pins", "SubGates"}
	for _, sur := range st.Surrogates() {
		tn, err := st.TypeOf(sur)
		if err != nil {
			t.Fatal(err)
		}
		if _, isRel := cat.RelType(tn); isRel {
			continue
		}
		if _, isInher := cat.InherRelType(tn); isInher {
			continue
		}
		for _, name := range probes {
			gv, gerr := st.GetAttr(sur, name)
			mv, merr := m.ResolveAttr(sur, name)
			if (gerr != nil) != (merr != nil) {
				t.Fatalf("%s(%s).%s: store err %v, model err %v", tn, sur, name, gerr, merr)
			}
			if gerr == nil && !bytes.Equal(encVal(gv), encVal(mv)) {
				t.Fatalf("%s(%s).%s: store %v, model %v", tn, sur, name, gv, mv)
			}
		}
		for _, name := range classes {
			gm, gerr := st.Members(sur, name)
			mm, merr := m.ResolveMembers(sur, name)
			if (gerr != nil) != (merr != nil) {
				t.Fatalf("%s(%s).%s members: store err %v, model err %v", tn, sur, name, gerr, merr)
			}
			if gerr == nil && !equalSurs(gm, mm) {
				t.Fatalf("%s(%s).%s members: store %v, model %v", tn, sur, name, gm, mm)
			}
		}
	}
}

func encVal(v domain.Value) []byte {
	var b codec.Buf
	b.Value(v)
	return b.Bytes()
}

func equalSurs(a, b []domain.Surrogate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// walker drives a random but type-aware operation mix. Errors are
// tolerated (invalid picks simply don't journal); the generator mixes
// enough valid operations to build deep inheritance chains.
type walker struct {
	rng       *rand.Rand
	st        *object.Store
	successes int

	ifaceIs, ifaces, impls, comps, pins, wires, all []domain.Surrogate
	classes                                         int
}

func (w *walker) pick(list []domain.Surrogate) domain.Surrogate {
	if len(list) == 0 {
		return 0
	}
	return list[w.rng.Intn(len(list))]
}

func (w *walker) ok(err error) bool {
	if err == nil {
		w.successes++
	}
	return err == nil
}

func (w *walker) step() {
	rng := w.rng
	switch rng.Intn(17) {
	case 0:
		cls := ""
		if w.classes > 0 && rng.Intn(2) == 0 {
			cls = fmt.Sprintf("C%d", rng.Intn(w.classes))
		}
		if sur, err := w.st.NewObject(paperschema.TypeGateInterfaceI, cls); w.ok(err) {
			w.ifaceIs = append(w.ifaceIs, sur)
			w.all = append(w.all, sur)
		}
	case 1:
		if sur, err := w.st.NewObject(paperschema.TypeGateInterface, ""); w.ok(err) {
			w.ifaces = append(w.ifaces, sur)
			w.all = append(w.all, sur)
		}
	case 2:
		if sur, err := w.st.NewObject(paperschema.TypeGateImplementation, ""); w.ok(err) {
			w.impls = append(w.impls, sur)
			w.all = append(w.all, sur)
		}
	case 3:
		if sur, err := w.st.NewObject(paperschema.TypeTimedComposite, ""); w.ok(err) {
			w.comps = append(w.comps, sur)
			w.all = append(w.all, sur)
		}
	case 4:
		if sur, err := w.st.NewSubobject(w.pick(w.ifaceIs), "Pins"); w.ok(err) {
			w.pins = append(w.pins, sur)
			w.all = append(w.all, sur)
		}
	case 5:
		pin := w.pick(w.pins)
		if rng.Intn(2) == 0 {
			w.ok(w.st.SetAttr(pin, "PinId", domain.Int(rng.Intn(64))))
		} else {
			dir := "IN"
			if rng.Intn(2) == 0 {
				dir = "OUT"
			}
			w.ok(w.st.SetAttr(pin, "InOut", domain.Sym(dir)))
		}
	case 6:
		name := "Length"
		if rng.Intn(2) == 0 {
			name = "Width"
		}
		v := domain.Value(domain.Int(rng.Intn(100)))
		if rng.Intn(8) == 0 {
			v = domain.NullValue
		}
		w.ok(w.st.SetAttr(w.pick(w.ifaces), name, v))
	case 7:
		w.ok(w.st.SetAttr(w.pick(w.impls), "TimeBehavior", domain.Int(rng.Intn(100))))
	case 8:
		w.ok(w.st.SetAttr(w.pick(w.comps), "SimSlot", domain.Int(rng.Intn(100))))
	case 9:
		_, err := w.st.Bind(paperschema.RelAllOfGateInterfaceI, w.pick(w.ifaces), w.pick(w.ifaceIs))
		w.ok(err)
	case 10:
		_, err := w.st.Bind(paperschema.RelAllOfGateInterface, w.pick(w.impls), w.pick(w.ifaces))
		w.ok(err)
	case 11:
		_, err := w.st.Bind(paperschema.RelSomeOfGate, w.pick(w.comps), w.pick(w.impls))
		w.ok(err)
	case 12:
		rel := [...]string{paperschema.RelAllOfGateInterfaceI, paperschema.RelAllOfGateInterface,
			paperschema.RelSomeOfGate}[rng.Intn(3)]
		w.ok(w.st.Unbind(rel, w.pick(w.all)))
	case 13:
		rel := [...]string{paperschema.RelAllOfGateInterfaceI, paperschema.RelAllOfGateInterface,
			paperschema.RelSomeOfGate}[rng.Intn(3)]
		w.ok(w.st.Acknowledge(rel, w.pick(w.all)))
	case 14:
		if rng.Intn(12) == 0 {
			w.st.SetDeletePolicy(object.DeletePolicy(rng.Intn(2)))
			w.successes++
			return
		}
		w.ok(w.st.Delete(w.pick(w.all)))
	case 15:
		p1, p2 := w.pick(w.pins), w.pick(w.pins)
		if sur, err := w.st.Relate(paperschema.TypeWire, object.Participants{
			"Pin1": domain.Ref(p1), "Pin2": domain.Ref(p2),
		}); w.ok(err) {
			w.wires = append(w.wires, sur)
			w.all = append(w.all, sur)
		}
	case 16:
		if rng.Intn(4) == 0 {
			name := fmt.Sprintf("C%d", w.classes)
			if w.ok(w.st.DefineClass(name, paperschema.TypeGateInterfaceI)) {
				w.classes++
			}
		}
	}
}
