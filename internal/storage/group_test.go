package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"testing"
)

// byteRec is a trivial Record for pipeline tests.
type byteRec []byte

func (r byteRec) Encode() []byte { return []byte(r) }

func newGroup(t *testing.T, cfg GroupConfig) (*Group, string) {
	t.Helper()
	l, path := openFresh(t)
	return NewGroup(l, cfg), path
}

func reopenRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	l, recs, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return recs
}

func TestGroupDurableRoundtrip(t *testing.T) {
	g, path := newGroup(t, GroupConfig{SyncCadence: 1, WaitSync: true})
	for i := 0; i < 5; i++ {
		if seq := g.Enqueue(byteRec(fmt.Sprintf("rec-%d", i))); seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		if err := g.CommitTail(); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.Durable != 5 || st.Records != 5 {
		t.Fatalf("stats = %+v, want 5 durable records", st)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	recs := reopenRecords(t, path)
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("rec-%d", i); string(r) != want {
			t.Errorf("record %d = %q, want %q", i, r, want)
		}
	}
}

func TestGroupCoalescesConcurrentWriters(t *testing.T) {
	const writers, opsEach = 8, 40
	g, path := newGroup(t, GroupConfig{SyncCadence: 1, WaitSync: true})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				g.Enqueue(byteRec(fmt.Sprintf("w%d-%d", w, i)))
				if err := g.CommitTail(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := g.Stats()
	if st.Records != writers*opsEach {
		t.Fatalf("records = %d, want %d", st.Records, writers*opsEach)
	}
	// With 8 writers against a real fsync, group commit must coalesce:
	// strictly fewer fsyncs than records, and at least one multi-record
	// batch.
	if st.Syncs >= st.Records {
		t.Errorf("no coalescing: %d syncs for %d records", st.Syncs, st.Records)
	}
	if st.MaxBatch < 2 {
		t.Errorf("max batch = %d, want >= 2", st.MaxBatch)
	}
	var hist uint64
	for _, n := range st.BatchSizes {
		hist += n
	}
	if hist != st.Batches {
		t.Errorf("histogram total %d != batches %d", hist, st.Batches)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := reopenRecords(t, path); len(recs) != writers*opsEach {
		t.Fatalf("recovered %d records, want %d", len(recs), writers*opsEach)
	}
}

func TestGroupAsyncJanitorDrains(t *testing.T) {
	g, path := newGroup(t, GroupConfig{SyncCadence: 4, WaitSync: false})
	for i := 0; i < 10; i++ {
		g.Enqueue(byteRec{byte(i)})
	}
	// CommitTail does not block in async mode; Flush makes all durable.
	if err := g.CommitTail(); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Durable != 10 {
		t.Fatalf("durable = %d, want 10", st.Durable)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := reopenRecords(t, path); len(recs) != 10 {
		t.Fatalf("recovered %d records, want 10", len(recs))
	}
}

func TestGroupWaitSyncJanitorDrainsUnclaimed(t *testing.T) {
	// Records nobody waits for (store-level mutations bypassing the
	// facade) must still reach disk promptly in WaitSync mode.
	g, _ := newGroup(t, GroupConfig{SyncCadence: 1, WaitSync: true})
	defer g.Close()
	g.Enqueue(byteRec("orphan"))
	deadline := make(chan struct{})
	go func() {
		for {
			if g.Stats().Durable >= 1 {
				close(deadline)
				return
			}
		}
	}()
	<-deadline
}

func TestGroupStickyError(t *testing.T) {
	g, _ := newGroup(t, GroupConfig{SyncCadence: 1, WaitSync: true})
	boom := errors.New("boom")
	g.Fail(boom)
	if err := g.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
	if seq := g.Enqueue(byteRec("late")); seq != 0 {
		t.Errorf("Enqueue after failure returned seq %d, want 0", seq)
	}
	if err := g.CommitTail(); !errors.Is(err, boom) {
		t.Errorf("CommitTail = %v, want sticky %v", err, boom)
	}
	if err := g.Flush(); !errors.Is(err, boom) {
		t.Errorf("Flush = %v, want sticky %v", err, boom)
	}
	if err := g.Close(); !errors.Is(err, boom) {
		t.Errorf("Close = %v, want sticky %v", err, boom)
	}
}

func TestGroupIOErrorPoisons(t *testing.T) {
	g, _ := newGroup(t, GroupConfig{SyncCadence: 1, WaitSync: true})
	// Force a real I/O failure: close the file out from under the log.
	g.log.f.Close()
	g.Enqueue(byteRec("doomed"))
	if err := g.CommitTail(); err == nil {
		t.Fatal("CommitTail should surface the write failure")
	}
	if err := g.Err(); err == nil {
		t.Fatal("error should be sticky")
	}
	_ = g.Close()
}

func TestGroupSwapLog(t *testing.T) {
	g, path := newGroup(t, GroupConfig{SyncCadence: 1, WaitSync: true})
	g.Enqueue(byteRec("old-epoch"))
	if err := g.CommitTail(); err != nil {
		t.Fatal(err)
	}
	next, _ := openFresh(t)
	old, err := g.SwapLog(next)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	g.Enqueue(byteRec("new-epoch"))
	if err := g.CommitTail(); err != nil {
		t.Fatal(err)
	}
	nextPath := next.path
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := reopenRecords(t, path); len(recs) != 1 || string(recs[0]) != "old-epoch" {
		t.Errorf("old log = %q", recs)
	}
	if recs := reopenRecords(t, nextPath); len(recs) != 1 || string(recs[0]) != "new-epoch" {
		t.Errorf("new log = %q", recs)
	}
}

func TestAppendBatchTornTailDropsWholeBatch(t *testing.T) {
	l, path := openFresh(t)
	if err := l.AppendBatch([][]byte{[]byte("keep")}, true); err != nil {
		t.Fatal(err)
	}
	batch := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	if err := l.AppendBatch(batch, true); err != nil {
		t.Fatal(err)
	}
	size := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Intact: the batch expands into its records.
	if recs := reopenRecords(t, path); len(recs) != 4 {
		t.Fatalf("intact reopen: %d records, want 4", len(recs))
	}
	// Torn mid-frame: the whole batch vanishes, the prefix survives.
	if err := os.Truncate(path, size-2); err != nil {
		t.Fatal(err)
	}
	recs := reopenRecords(t, path)
	if len(recs) != 1 || string(recs[0]) != "keep" {
		t.Fatalf("torn reopen = %q, want just \"keep\"", recs)
	}
}

func TestAppendBatchSingleRecordUsesLegacyFrame(t *testing.T) {
	l, path := openFresh(t)
	if err := l.AppendBatch([][]byte{[]byte("solo")}, true); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([][]byte{[]byte("solo")}, true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// A single record not starting with the marker is framed as a plain
	// record: [len][crc][payload], with no batch marker or count.
	frame := make([]byte, headerSize, headerSize+4)
	binary.LittleEndian.PutUint32(frame[0:4], 4)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE([]byte("solo")))
	frame = append(frame, "solo"...)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte(nil), frame...), frame...); !bytes.Equal(got, want) {
		t.Errorf("single-record frames = %x, want %x", got, want)
	}
	recs := reopenRecords(t, path)
	if len(recs) != 2 || string(recs[0]) != "solo" || string(recs[1]) != "solo" {
		t.Fatalf("reopen = %q", recs)
	}
}

func TestAppendBatchEscapesMarkerPayload(t *testing.T) {
	l, path := openFresh(t)
	tricky := []byte{BatchMarker, 1, 2, 3}
	if err := l.AppendBatch([][]byte{tricky}, true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	recs := reopenRecords(t, path)
	if len(recs) != 1 || !bytes.Equal(recs[0], tricky) {
		t.Fatalf("marker-prefixed payload mangled: %q", recs)
	}
}
