package object

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cadcam/internal/domain"
	"cadcam/internal/paperschema"
)

// TestSnapshotClassMembersBeforeHistory reads a pinned class extent in
// the window between a live membership change and the history version
// commitClassHist publishes for it. A class that never changed under a
// pin has no history and answers from its live slice, so the first change
// made while a pin is live must seed the pre-change membership first;
// otherwise the pin sees a member created after it.
func TestSnapshotClassMembersBeforeHistory(t *testing.T) {
	s := gateStore(t)
	if err := s.DefineClass("pool", paperschema.TypeGateInterface); err != nil {
		t.Fatal(err)
	}
	root := mustSur(t)(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	sn := s.Snapshot()
	defer sn.Release()

	s.lockAll()
	pool, _ := s.lookupClass("pool")
	po, _ := s.obj(root)
	_, pins, err := s.subclassOf(po, "Pins")
	if err != nil {
		s.unlockAll()
		t.Fatal(err)
	}
	const ghost = domain.Surrogate(1 << 40)
	s.classAdd(pool, ghost)
	s.classAdd(pins, ghost)
	gotPool, errPool := sn.Class("pool")
	gotPins, errPins := sn.Members(root, "Pins")
	pool.remove(ghost)
	pins.remove(ghost)
	s.abortClassTouches()
	s.unlockAll()

	if errPool != nil || len(gotPool) != 0 {
		t.Fatalf("pinned class extent mid-operation = %v, %v; want empty", gotPool, errPool)
	}
	if errPins != nil || len(gotPins) != 0 {
		t.Fatalf("pinned subclass mid-operation = %v, %v; want empty", gotPins, errPins)
	}
}

// TestSweepIdlePinAfterSweep checks the release pacing: once a sweep has
// reclaimed everything (index postings included), a pin under which
// nothing is written must not sweep again on release.
func TestSweepIdlePinAfterSweep(t *testing.T) {
	s := gateStore(t)
	if err := s.DefineClass("gates", paperschema.TypeSimpleGate); err != nil {
		t.Fatal(err)
	}
	g := mustSur(t)(s.NewObject(paperschema.TypeSimpleGate, "gates"))
	if err := s.CreateIndex("gates_w", "gates", "Width"); err != nil {
		t.Fatal(err)
	}
	set(t, s, g, "Width", domain.Int(1))

	sn := s.Snapshot()
	set(t, s, g, "Width", domain.Int(2)) // closes a posting, retains a node
	sn.Release()
	st := s.Stats().MVCC
	if st.GCRuns != 1 || st.Reclaimed == 0 {
		t.Fatalf("release after a retained write: runs %d reclaimed %d, want 1 and > 0", st.GCRuns, st.Reclaimed)
	}
	retained := st.Retained

	s.Snapshot().Release()
	st = s.Stats().MVCC
	if st.GCRuns != 1 {
		t.Fatalf("idle pin swept again: runs %d, want 1", st.GCRuns)
	}
	if st.Retained != retained {
		t.Fatalf("lifetime retained count moved %d -> %d without a write", retained, st.Retained)
	}
	if bad := s.CheckVersionsSwept(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestSweepNewSubobjectParentModSeq: creating a subobject under a pin
// retains the parent's old modSeq; the sweep must reclaim it.
func TestSweepNewSubobjectParentModSeq(t *testing.T) {
	s := gateStore(t)
	root := mustSur(t)(s.NewObject(paperschema.TypeGateInterfaceI, ""))
	addPin(t, s, root, "IN", 1) // gives the parent a modSeq to retain

	sn := s.Snapshot()
	before := s.Stats().MVCC.Retained
	mustSur(t)(s.NewSubobject(root, "Pins"))
	// Two retentions: the Pins class history and the parent's modSeq.
	if got := s.Stats().MVCC.Retained; got != before+2 {
		t.Fatalf("retained %d -> %d, want two more", before, got)
	}
	sn.Release()
	if st := s.Stats().MVCC; st.ExtraVersions != 0 {
		t.Fatalf("extra versions after release = %d", st.ExtraVersions)
	}
	s.lockAll()
	po, _ := s.obj(root)
	prev := po.modPrev.Load()
	s.unlockAll()
	if prev != nil {
		t.Fatal("parent keeps modSeq history after the sweep")
	}
	if bad := s.CheckVersionsSwept(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestSweepKeepsWhatPinsNeed sweeps with one pin released and an older
// one still live: the work list must keep the owners the older pin still
// reads, and the final release must empty it.
func TestSweepKeepsWhatPinsNeed(t *testing.T) {
	s := gateStore(t)
	iface := buildInterface(t, s, 4, 2, 2, 1)
	impl := mustSur(t)(s.NewObject(paperschema.TypeGateImplementation, ""))
	if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, iface); err != nil {
		t.Fatal(err)
	}
	old := s.Snapshot()
	set(t, s, iface, "Length", domain.Int(5))
	if err := s.Unbind(paperschema.RelAllOfGateInterface, impl); err != nil {
		t.Fatal(err)
	}
	young := s.Snapshot()
	set(t, s, iface, "Length", domain.Int(6))
	young.Release()
	s.SweepVersions()
	if st := s.Stats().MVCC; st.ExtraVersions == 0 || st.DeadObjects != 1 {
		t.Fatalf("under the old pin: extra %d dead %d, want > 0 and 1", st.ExtraVersions, st.DeadObjects)
	}
	if v, err := old.GetAttr(impl, "Length"); err != nil || !v.Equal(domain.Int(4)) {
		t.Fatalf("old pin reads inherited Length %v, %v; want 4", v, err)
	}
	old.Release()
	if st := s.Stats().MVCC; st.ExtraVersions != 0 || st.DeadObjects != 0 {
		t.Fatalf("after the last release: extra %d dead %d", st.ExtraVersions, st.DeadObjects)
	}
	if bad := s.CheckVersionsSwept(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// TestSweepRaceBookkeeping races sweeps against binding bookkeeping,
// the one chain writers on other shards push while the sweep holds only
// the owner's shard lock: transmitter writes fan out to many bindings
// while pins come and go. Once the last pin is released, a sweep must
// leave no chain behind. Run with -race.
func TestSweepRaceBookkeeping(t *testing.T) {
	s := gateStore(t)
	ifaces := make([]domain.Surrogate, 4)
	for i := range ifaces {
		ifaces[i] = buildInterface(t, s, int64(4+i), 2, 1, 1)
		for j := 0; j < 8; j++ {
			impl := mustSur(t)(s.NewObject(paperschema.TypeGateImplementation, ""))
			if _, err := s.Bind(paperschema.RelAllOfGateInterface, impl, ifaces[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var stop atomic.Bool
	var writers, pinners sync.WaitGroup
	for i := range ifaces {
		writers.Add(1)
		go func(sur domain.Surrogate) {
			defer writers.Done()
			for r := 0; !stop.Load(); r++ {
				if err := s.SetAttr(sur, "Length", domain.Int(int64(r))); err != nil {
					t.Error(err)
					return
				}
			}
		}(ifaces[i])
	}
	for g := 0; g < 2; g++ {
		pinners.Add(1)
		go func() {
			defer pinners.Done()
			for i := 0; i < 300; i++ {
				s.Snapshot().Release()
			}
		}()
	}
	pinners.Wait()
	stop.Store(true)
	writers.Wait()
	s.SweepVersions()
	if st := s.Stats().MVCC; st.ExtraVersions != 0 {
		t.Fatalf("extra versions after the final sweep = %d", st.ExtraVersions)
	}
	if bad := s.CheckVersionsSwept(); len(bad) != 0 {
		t.Fatal(bad)
	}
}

// BenchmarkSnapshotRelease measures the last release of a pin under which
// one attribute write retained a version: the release runs the sweep,
// whose cost should follow what was retained, not the store size.
func BenchmarkSnapshotRelease(b *testing.B) {
	for _, n := range []int{1000, 30000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			s, err := NewStore(paperschema.MustGates())
			if err != nil {
				b.Fatal(err)
			}
			surs := make([]domain.Surrogate, n)
			for i := range surs {
				if surs[i], err = s.NewObject(paperschema.TypeGateInterface, ""); err != nil {
					b.Fatal(err)
				}
				if err := s.SetAttr(surs[i], "Length", domain.Int(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn := s.Snapshot()
				if err := s.SetAttr(surs[i%n], "Length", domain.Int(int64(i))); err != nil {
					b.Fatal(err)
				}
				sn.Release()
			}
			b.StopTimer()
			if st := s.Stats().MVCC; st.GCRuns < uint64(b.N) {
				b.Fatalf("%d sweeps for %d releases", st.GCRuns, b.N)
			}
		})
	}
}

// TestSweepKeepsPinTakenDuringSweep: a snapshot pinned while a sweep
// triggered by another pin's release is running must read the same state
// for as long as it is held. The sweep used to read its low-water mark
// once, before such a pin existed, and then trimmed versions and dead
// objects the new pin still needed.
func TestSweepKeepsPinTakenDuringSweep(t *testing.T) {
	s, err := NewStore(paperschema.MustGates())
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // churn: every write and delete retains for a live pin
		defer wg.Done()
		for !stop.Load() {
			var surs []domain.Surrogate
			for i := 0; i < 32; i++ {
				sur, err := s.NewObject(paperschema.TypePin, "")
				if err != nil {
					t.Error(err)
					return
				}
				surs = append(surs, sur)
			}
			for i, sur := range surs {
				_ = s.SetAttr(sur, "PinId", domain.Int(int64(i)))
				_ = s.Delete(sur)
			}
		}
	}()
	go func() { // short pins: each last release sweeps
		defer wg.Done()
		for !stop.Load() {
			s.Snapshot().Release()
		}
	}()
	read := func(sn *Snapshot) string {
		out := ""
		for _, sur := range sn.Surrogates() {
			v, err := sn.GetAttr(sur, "PinId")
			out += fmt.Sprintf("%v=%v/%v ", sur, v, err)
		}
		return out
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		sn := s.Snapshot()
		first := read(sn)
		for i := 0; i < 4; i++ {
			if again := read(sn); again != first {
				sn.Release()
				stop.Store(true)
				wg.Wait()
				t.Fatalf("pin at %d changed while held:\n%s\n%s", sn.Seq(), first, again)
			}
		}
		sn.Release()
	}
	stop.Store(true)
	wg.Wait()
}
