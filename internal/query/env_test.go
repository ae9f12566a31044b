package query

import (
	"fmt"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/expr"
	"cadcam/internal/object"
	"cadcam/internal/paperschema"
)

// TestSnapshotEnvMatchesLive evaluates expressions through the live
// store's env and through the env of a snapshot pinned with no write
// after it: both read the same state, so every result — errors included —
// must be equal. Relationship participant roles read as collections
// (count(Pin1)) are the case the two once disagreed on.
func TestSnapshotEnvMatchesLive(t *testing.T) {
	s := gateStore(t)
	rootI := mk(t, s, paperschema.TypeGateInterfaceI, "")
	var pins []domain.Surrogate
	for _, dir := range []string{"IN", "IN", "OUT"} {
		pin, err := s.NewSubobject(rootI, "Pins")
		if err != nil {
			t.Fatal(err)
		}
		setA(t, s, pin, "InOut", domain.Sym(dir))
		pins = append(pins, pin)
	}
	iface := mk(t, s, paperschema.TypeGateInterface, "")
	if _, err := s.Bind(paperschema.RelAllOfGateInterfaceI, iface, rootI); err != nil {
		t.Fatal(err)
	}
	setA(t, s, iface, "Length", domain.Int(4))
	impl := mk(t, s, paperschema.TypeGateImplementation, "")
	binding, err := s.Bind(paperschema.RelAllOfGateInterface, impl, iface)
	if err != nil {
		t.Fatal(err)
	}
	unbound := mk(t, s, paperschema.TypeGateImplementation, "")
	w, err := s.Relate(paperschema.TypeWire, object.Participants{
		"Pin1": domain.Ref(pins[0]), "Pin2": domain.Ref(pins[2]),
	})
	if err != nil {
		t.Fatal(err)
	}

	sn := s.Snapshot()
	defer sn.Release()
	live, pinned := ForStore(s), ForSnapshot(sn)
	cases := []struct {
		sur  domain.Surrogate
		expr string
	}{
		{w, "count(Pin1) = 1"},
		{w, "Pin2.InOut"},
		{w, "Corners"},
		{impl, `exists p in Pins: p.InOut = "IN"`},
		{impl, "exists p in Pins: p.InOut = IN"},
		{impl, "count(Pins)"},
		{impl, "Length"},
		{impl, "Length = 4"},
		{unbound, "Length"},
		{unbound, "count(Pins)"},
		{impl, "Nope"},
		{impl, "count(Nope)"},
		{binding, "TransmitterUpdates"},
		{binding, "count(Inheritor)"},
	}
	for _, c := range cases {
		e, err := expr.Parse(c.expr)
		if err != nil {
			t.Fatalf("parse %q: %v", c.expr, err)
		}
		lv, lerr := expr.EvalValue(e, live.Env(c.sur))
		pv, perr := expr.EvalValue(e, pinned.Env(c.sur))
		if got, want := fmt.Sprint(pv, perr), fmt.Sprint(lv, lerr); got != want {
			t.Errorf("%s on %s: snapshot %s, live %s", c.expr, c.sur, got, want)
		}
	}
}
