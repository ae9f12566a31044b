package wal

import (
	"fmt"

	"cadcam/internal/codec"
	"cadcam/internal/domain"
	"cadcam/internal/object"
	"cadcam/internal/version"
)

// Snapshot format: magic, format version, store state, version state.
// Version 2 adds the secondary-index definitions after the class records;
// the decoder still accepts version-1 blobs (no index section).
const (
	snapMagic   = uint64(0xCADCA55E)
	snapVersion = uint64(2)
)

// EncodeSnapshot serializes the full logical state of the store and
// version manager from their exported states. Callers that need the
// state to be atomic with a log rotation pin it with
// object.Store.PinCheckpoint and export the pinned snapshot.
func EncodeSnapshot(st *object.StoreState, vs *version.ManagerState) []byte {
	var e codec.Buf
	e.Uvarint(snapMagic)
	e.Uvarint(snapVersion)

	encodeClassRecords(&e, st.Classes)
	encodeIndexRecords(&e, st.Indexes)
	e.Uvarint(uint64(len(st.Objects)))
	for i := range st.Objects {
		encodeObjectRecord(&e, &st.Objects[i])
	}
	e.Uvarint(uint64(len(st.Bindings)))
	for i := range st.Bindings {
		encodeBindingRecord(&e, &st.Bindings[i])
	}
	e.Uvarint(st.NextSur)
	e.Uvarint(st.Seq)

	encodeVersionState(&e, vs)
	return e.Bytes()
}

// DecodeSnapshot rebuilds the state into an empty store and version
// manager.
func DecodeSnapshot(b []byte, s *object.Store, vm *version.Manager) error {
	st, vs, err := DecodeSnapshotState(b)
	if err != nil {
		return err
	}
	if err := s.Import(st); err != nil {
		return err
	}
	return vm.Import(vs)
}

// DecodeSnapshotState decodes a snapshot blob into its raw state records
// without importing them anywhere, so verification tooling can feed the
// same bytes to an independent model of the store.
func DecodeSnapshotState(b []byte) (*object.StoreState, *version.ManagerState, error) {
	r := codec.NewReader(b)
	if r.Uvarint() != snapMagic {
		return nil, nil, fmt.Errorf("wal: bad snapshot magic")
	}
	v := r.Uvarint()
	if v < 1 || v > snapVersion {
		return nil, nil, fmt.Errorf("wal: unsupported snapshot version %d", v)
	}
	st := &object.StoreState{}
	st.Classes = decodeClassRecords(r)
	if v >= 2 {
		st.Indexes = decodeIndexRecords(r)
	}
	for i, n := uint64(0), r.Uvarint(); i < n && r.Err() == nil; i++ {
		st.Objects = append(st.Objects, decodeObjectRecord(r))
	}
	for i, n := uint64(0), r.Uvarint(); i < n && r.Err() == nil; i++ {
		st.Bindings = append(st.Bindings, decodeBindingRecord(r))
	}
	st.NextSur = r.Uvarint()
	st.Seq = r.Uvarint()

	vs := decodeVersionState(r)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	// Attrs maps in records may contain explicit nulls; normalize.
	for _, o := range st.Objects {
		normalizeNulls(o.Attrs)
		normalizeNulls(o.Participants)
	}
	return st, vs, nil
}

func normalizeNulls(m map[string]domain.Value) {
	for k, v := range m {
		if domain.IsNull(v) {
			delete(m, k)
		}
	}
}
