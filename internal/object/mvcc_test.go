package object

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
)

func TestSnapshotAttrIsolation(t *testing.T) {
	s := gateStore(t)
	iface := buildInterface(t, s, 4, 2, 2, 1)
	bare := mustSur(t)(s.NewObject(paperschema.TypeGateInterface, ""))

	sn := s.Snapshot()
	defer sn.Release()
	set(t, s, iface, "Length", domain.Int(8))

	if v, _ := sn.GetAttr(iface, "Length"); !v.Equal(domain.Int(4)) {
		t.Errorf("snapshot Length = %s, want 4", v)
	}
	if v := get(t, s, iface, "Length"); !v.Equal(domain.Int(8)) {
		t.Errorf("live Length = %s, want 8", v)
	}

	// Clearing to null after the pin must not erase the pinned value.
	set(t, s, iface, "Length", domain.NullValue)
	if v, _ := sn.GetAttr(iface, "Length"); !v.Equal(domain.Int(4)) {
		t.Errorf("snapshot Length after live clear = %s, want 4", v)
	}

	// An attribute first set after the pin reads null in the snapshot.
	set(t, s, bare, "Length", domain.Int(9))
	if v, err := sn.GetAttr(bare, "Length"); err != nil || !domain.IsNull(v) {
		t.Errorf("snapshot post-pin attr = %s, %v, want null", v, err)
	}

	// Unknown attributes still error with the schema's diagnosis.
	if _, err := sn.GetAttr(iface, "Ghost"); err == nil {
		t.Error("snapshot read of unknown attribute succeeded")
	}
	// Surrogate pseudo-attribute.
	if v, _ := sn.GetAttr(iface, "Surrogate"); !v.Equal(domain.Ref(iface)) {
		t.Errorf("snapshot Surrogate = %s", v)
	}
}

func TestSnapshotInheritedReadIsolation(t *testing.T) {
	s := gateStore(t)
	iface := buildInterface(t, s, 4, 2, 2, 1)
	impl := mustSur(t)(s.NewObject(paperschema.TypeGateImplementation, ""))
	if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		t.Fatal(err)
	}

	sn := s.Snapshot()
	defer sn.Release()

	// Transmitter update after the pin: live view moves, snapshot stays.
	set(t, s, iface, "Length", domain.Int(8))
	if v, _ := sn.GetAttr(impl, "Length"); !v.Equal(domain.Int(4)) {
		t.Errorf("snapshot inherited Length = %s, want 4", v)
	}
	if v := get(t, s, impl, "Length"); !v.Equal(domain.Int(8)) {
		t.Errorf("live inherited Length = %s, want 8", v)
	}

	// Unbind after the pin: the snapshot still resolves via the binding.
	if err := s.Unbind(paperschema.RelAllOfGateInterface, impl); err != nil {
		t.Fatal(err)
	}
	if v, _ := sn.GetAttr(impl, "Length"); !v.Equal(domain.Int(4)) {
		t.Errorf("snapshot inherited Length after unbind = %s, want 4", v)
	}
	if v := get(t, s, impl, "Length"); !domain.IsNull(v) {
		t.Errorf("live inherited Length after unbind = %s, want null", v)
	}
	if bs := sn.BindingsOfInheritor(impl); len(bs) != 1 {
		t.Errorf("snapshot bindings after unbind = %d, want 1", len(bs))
	}
	// Inherited members resolve against the pinned binding too (the
	// interface inherits its pins from the hierarchy root in turn).
	if pins, err := sn.Members(impl, "Pins"); err != nil || len(pins) != 3 {
		t.Errorf("snapshot inherited Pins = %v, %v, want 3 members", pins, err)
	}
}

func TestSnapshotBindAfterPinInvisible(t *testing.T) {
	s := gateStore(t)
	iface := buildInterface(t, s, 4, 2, 2, 1)
	impl := mustSur(t)(s.NewObject(paperschema.TypeGateImplementation, ""))

	sn := s.Snapshot()
	defer sn.Release()
	if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		t.Fatal(err)
	}

	if v, _ := sn.GetAttr(impl, "Length"); !domain.IsNull(v) {
		t.Errorf("snapshot sees post-pin binding: Length = %s", v)
	}
	if bs := sn.BindingsOfInheritor(impl); len(bs) != 0 {
		t.Errorf("snapshot bindings = %d, want 0", len(bs))
	}
	if bs := sn.BindingsOfTransmitter(iface); len(bs) != 0 {
		t.Errorf("snapshot transmitter bindings = %d, want 0", len(bs))
	}
}

func TestSnapshotDeleteVisibility(t *testing.T) {
	s := gateStore(t)
	if err := s.DefineClass("Roots", paperschema.TypeGateInterfaceI); err != nil {
		t.Fatal(err)
	}
	root := mustSur(t)(s.NewObject(paperschema.TypeGateInterfaceI, "Roots"))
	pin := addPin(t, s, root, "IN", 1)

	sn := s.Snapshot()
	defer sn.Release()
	if err := s.Delete(root); err != nil { // cascades into the pin
		t.Fatal(err)
	}

	if s.Exists(root) || s.Exists(pin) {
		t.Fatal("live store still has deleted objects")
	}
	if !sn.Exists(root) || !sn.Exists(pin) {
		t.Fatal("snapshot lost pinned objects")
	}
	if v, err := sn.GetAttr(pin, "PinId"); err != nil || !v.Equal(domain.Int(1)) {
		t.Errorf("snapshot PinId of cascade-deleted pin = %s, %v", v, err)
	}
	if pins, err := sn.Members(root, "Pins"); err != nil || len(pins) != 1 || pins[0] != pin {
		t.Errorf("snapshot Pins of deleted object = %v, %v", pins, err)
	}
	if ms, err := sn.Class("Roots"); err != nil || len(ms) != 1 || ms[0] != root {
		t.Errorf("snapshot class extent = %v, %v", ms, err)
	}
	if ms, _ := s.Class("Roots"); len(ms) != 0 {
		t.Errorf("live class extent = %v, want empty", ms)
	}
	surs := sn.Surrogates()
	if len(surs) != 2 {
		t.Errorf("snapshot Surrogates = %v, want the 2 pinned objects", surs)
	}
}

func TestSnapshotCreateAfterPinInvisible(t *testing.T) {
	s := gateStore(t)
	if err := s.DefineClass("Interfaces", paperschema.TypeGateInterface); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Release()

	iface := mustSur(t)(s.NewObject(paperschema.TypeGateInterface, "Interfaces"))
	if sn.Exists(iface) {
		t.Error("snapshot sees post-pin object")
	}
	if _, err := sn.GetAttr(iface, "Length"); err == nil {
		t.Error("snapshot read of post-pin object succeeded")
	}
	if ms, err := sn.Class("Interfaces"); err != nil || len(ms) != 0 {
		t.Errorf("snapshot class extent = %v, %v, want empty", ms, err)
	}
	if len(sn.Surrogates()) != 0 {
		t.Errorf("snapshot Surrogates = %v, want empty", sn.Surrogates())
	}
	// A class defined after the pin does not exist in the snapshot.
	if err := s.DefineClass("Late", paperschema.TypeGateInterface); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.Class("Late"); err == nil {
		t.Error("snapshot sees post-pin class")
	}
	for _, n := range sn.ClassNames() {
		if n == "Late" {
			t.Error("snapshot ClassNames lists post-pin class")
		}
	}
}

func TestSnapshotBookkeepingAtPin(t *testing.T) {
	s := gateStore(t)
	iface := buildInterface(t, s, 4, 2, 2, 1)
	impl := mustSur(t)(s.NewObject(paperschema.TypeGateImplementation, ""))
	bsur := mustSur(t)(s.Bind(paperschema.RelAllOfGateInterface, impl, iface))

	set(t, s, iface, "Length", domain.Int(5)) // one permeable update
	sn := s.Snapshot()
	defer sn.Release()
	set(t, s, iface, "Length", domain.Int(6)) // second, after the pin

	upd, _ := sn.GetAttr(bsur, AttrTransmitterUpdates)
	if n, _ := domain.AsInt(upd); n != 1 {
		t.Errorf("snapshot TransmitterUpdates = %d, want 1", n)
	}
	liveUpd, _ := s.GetAttr(bsur, AttrTransmitterUpdates)
	if n, _ := domain.AsInt(liveUpd); n != 2 {
		t.Errorf("live TransmitterUpdates = %d, want 2", n)
	}

	// Acknowledge after the pin: the pinned AcknowledgedSeq stays old.
	if err := s.Acknowledge(paperschema.RelAllOfGateInterface, impl); err != nil {
		t.Fatal(err)
	}
	last, _ := sn.GetAttr(bsur, AttrLastUpdateSeq)
	ack, _ := sn.GetAttr(bsur, AttrAcknowledgedSeq)
	l, _ := domain.AsInt(last)
	a, _ := domain.AsInt(ack)
	if l == 0 || a >= l {
		t.Errorf("snapshot book = last %d ack %d, want pending (ack < last)", l, a)
	}
	liveLast, _ := s.GetAttr(bsur, AttrLastUpdateSeq)
	liveAck, _ := s.GetAttr(bsur, AttrAcknowledgedSeq)
	ll, _ := domain.AsInt(liveLast)
	la, _ := domain.AsInt(liveAck)
	if la < ll {
		t.Errorf("live book = last %d ack %d, want acknowledged", ll, la)
	}
}

func TestSnapshotExportStableUnderWrites(t *testing.T) {
	s := gateStore(t)
	if err := s.DefineClass("Interfaces", paperschema.TypeGateInterface); err != nil {
		t.Fatal(err)
	}
	iface := buildInterface(t, s, 4, 2, 2, 1)
	mustSur(t)(s.NewObject(paperschema.TypeGateInterface, "Interfaces"))
	impl := mustSur(t)(s.NewObject(paperschema.TypeGateImplementation, ""))
	if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		t.Fatal(err)
	}

	before := s.Export()
	sn := s.Snapshot()
	defer sn.Release()

	// The pinned export equals the live export taken at the same point.
	if got := sn.Export(); !reflect.DeepEqual(got, before) {
		t.Fatalf("snapshot export differs from live export at pin:\n got %+v\nwant %+v", got, before)
	}

	// Mutate heavily: the pinned export must not move.
	set(t, s, iface, "Length", domain.Int(9))
	mustSur(t)(s.NewObject(paperschema.TypeGateImplementation, ""))
	if err := s.Unbind(paperschema.RelAllOfGateInterface, impl); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(impl); err != nil {
		t.Fatal(err)
	}
	if got := sn.Export(); !reflect.DeepEqual(got, before) {
		t.Fatalf("snapshot export moved after post-pin writes:\n got %+v\nwant %+v", got, before)
	}
}

// TestReleaseTriggersSweep checks the automatic GC path: releasing the
// last pin sweeps retained versions without an explicit SweepVersions.
func TestReleaseTriggersSweep(t *testing.T) {
	s := gateStore(t)
	iface := buildInterface(t, s, 4, 2, 2, 1)
	sn := s.Snapshot()
	set(t, s, iface, "Length", domain.Int(5))
	set(t, s, iface, "Length", domain.Int(6))
	if st := s.Stats().MVCC; st.Retained == 0 {
		t.Fatal("writes under a pin retained nothing")
	}
	sn.Release()
	st := s.Stats().MVCC
	if st.GCRuns == 0 || st.Reclaimed == 0 {
		t.Fatalf("release did not sweep: runs %d reclaimed %d", st.GCRuns, st.Reclaimed)
	}
	if st.ExtraVersions != 0 || st.DeadObjects != 0 {
		t.Fatalf("after release: extra %d dead %d, want 0/0", st.ExtraVersions, st.DeadObjects)
	}
}

// TestSnapshotGCReclaims drives the full retain/release cycle: a pin
// forces writers to retain version nodes and deleted objects; a sweep
// under the pin reclaims nothing; after release the sweep restores the
// single-version steady state.
func TestSnapshotGCReclaims(t *testing.T) {
	s := gateStore(t)
	iface := buildInterface(t, s, 4, 2, 2, 1)
	doomed := mustSur(t)(s.NewObject(paperschema.TypeGateInterface, ""))

	sn := s.Snapshot()
	for i := 0; i < 32; i++ {
		set(t, s, iface, "Length", domain.Int(int64(i)))
	}
	if err := s.Delete(doomed); err != nil {
		t.Fatal(err)
	}

	st := s.Stats().MVCC
	if st.Pins != 1 || st.Retained == 0 {
		t.Fatalf("under pin: pins %d retained %d, want 1 and > 0", st.Pins, st.Retained)
	}
	// The sweep must not reclaim anything a live pin can still read.
	if rec := s.SweepVersions(); rec != 0 {
		t.Fatalf("sweep under pin reclaimed %d nodes", rec)
	}
	if v, _ := sn.GetAttr(iface, "Length"); !v.Equal(domain.Int(4)) {
		t.Fatalf("pinned read after sweep = %s, want 4", v)
	}
	if !sn.Exists(doomed) {
		t.Fatal("pinned deleted object vanished under sweep")
	}

	sn.Release()
	s.SweepVersions()
	st = s.Stats().MVCC
	if st.Pins != 0 {
		t.Fatalf("pins after release = %d", st.Pins)
	}
	if st.ExtraVersions != 0 || st.DeadObjects != 0 {
		t.Fatalf("after release: extra versions %d dead objects %d, want 0/0", st.ExtraVersions, st.DeadObjects)
	}
	if st.Reclaimed == 0 {
		t.Fatal("sweep reclaimed nothing")
	}
	if st.LowWater != math.MaxUint64 {
		t.Fatalf("low water with no pins = %d", st.LowWater)
	}
	if s.Exists(doomed) {
		t.Fatal("deleted object resurrected")
	}
}

// TestSnapshotRaceTopology races snapshot pins and scans against
// structural writers: rebinds, delete cascades and class churn. Run
// with -race; the correctness check is that every snapshot read is
// internally stable (two reads of the same slot at the same pin agree).
func TestSnapshotRaceTopology(t *testing.T) {
	s := gateStore(t)
	if err := s.DefineClass("Interfaces", paperschema.TypeGateInterface); err != nil {
		t.Fatal(err)
	}
	ifaces := make([]domain.Surrogate, 4)
	impls := make([]domain.Surrogate, 4)
	for i := range ifaces {
		ifaces[i] = buildInterface(t, s, int64(4+i), 2, 2, 1)
		impls[i] = mustSur(t)(s.NewObject(paperschema.TypeGateImplementation, ""))
		if _, err := s.Bind(paperschema.RelAllOfGateInterface, impls[i], ifaces[i]); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var writers, scanners sync.WaitGroup

	// Rebinder: flips each impl between transmitters (topology churn).
	writers.Add(1)
	go func() {
		defer writers.Done()
		for r := 0; !stop.Load(); r++ {
			im := impls[r%len(impls)]
			tr := ifaces[(r+1)%len(ifaces)]
			_ = s.Unbind(paperschema.RelAllOfGateInterface, im)
			_, _ = s.Bind(paperschema.RelAllOfGateInterface, im, tr)
		}
	}()

	// Cascade deleter: creates a hierarchy root with a pin, deletes it.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for !stop.Load() {
			sur, err := s.NewObject(paperschema.TypeGateInterfaceI, "")
			if err != nil {
				continue
			}
			if pin, err := s.NewSubobject(sur, "Pins"); err == nil {
				_ = s.SetAttr(pin, "PinId", domain.Int(1))
			}
			_ = s.Delete(sur)
		}
	}()

	// Class churner: members come and go through a database class.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for !stop.Load() {
			sur, err := s.NewObject(paperschema.TypeGateInterface, "Interfaces")
			if err != nil {
				continue
			}
			_ = s.Delete(sur)
		}
	}()

	// Attribute writers on the stable interfaces.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for r := 0; !stop.Load(); r++ {
			_ = s.SetAttr(ifaces[r%len(ifaces)], "Length", domain.Int(int64(r)))
		}
	}()

	// Snapshot scanners: pin, double-read everything, release.
	for g := 0; g < 3; g++ {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for i := 0; i < 60; i++ {
				sn := s.Snapshot()
				for _, sur := range sn.Surrogates() {
					v1, err1 := sn.GetAttr(sur, "Surrogate")
					v2, err2 := sn.GetAttr(sur, "Surrogate")
					if (err1 == nil) != (err2 == nil) || (err1 == nil && !v1.Equal(v2)) {
						t.Errorf("snapshot read of %s not stable: %v/%v %v/%v", sur, v1, err1, v2, err2)
					}
				}
				for _, im := range impls {
					a, e1 := sn.GetAttr(im, "Length")
					b, e2 := sn.GetAttr(im, "Length")
					if (e1 == nil) != (e2 == nil) || (e1 == nil && !a.Equal(b)) {
						t.Errorf("inherited read of %s not stable at pin %d: %v vs %v", im, sn.Seq(), a, b)
					}
				}
				m1, _ := sn.Class("Interfaces")
				m2, _ := sn.Class("Interfaces")
				if !reflect.DeepEqual(m1, m2) {
					t.Errorf("class extent not stable at pin %d: %v vs %v", sn.Seq(), m1, m2)
				}
				sn.Release()
			}
		}()
	}

	scanners.Wait()
	stop.Store(true)
	writers.Wait()

	if bad := s.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated after race: %v", bad)
	}
	// All pins are gone: the sweep restores steady state.
	s.SweepVersions()
	st := s.Stats().MVCC
	if st.Pins != 0 || st.ExtraVersions != 0 || st.DeadObjects != 0 {
		t.Fatalf("after race: pins %d extra %d dead %d", st.Pins, st.ExtraVersions, st.DeadObjects)
	}
	if bad := s.CheckVersionsSwept(); len(bad) != 0 {
		t.Fatalf("versions left after race: %v", bad)
	}
}
