package version

import (
	"fmt"
	"sort"

	"cadcam/internal/domain"
)

// DesignRecord is the portable form of one design object.
type DesignRecord struct {
	Name      string
	Interface domain.Surrogate
	Default   domain.Surrogate
}

// VersionRecord is the portable form of one version registration.
type VersionRecord struct {
	Object      domain.Surrogate
	Design      string
	No          int
	Alternative string
	Status      Status
	DerivedFrom []domain.Surrogate
}

// ManagerState is a complete logical snapshot of a version manager.
type ManagerState struct {
	Designs  []DesignRecord
	Versions []VersionRecord
}

// Export captures the manager's state, deterministic by design name and
// version number.
func (m *Manager) Export() *ManagerState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st := &ManagerState{}
	names := make([]string, 0, len(m.designs))
	for n := range m.designs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := m.designs[n]
		st.Designs = append(st.Designs, DesignRecord{
			Name:      n,
			Interface: d.Interface,
			Default:   d.defaultVer,
		})
		for _, v := range d.versions {
			st.Versions = append(st.Versions, VersionRecord{
				Object:      v.Object,
				Design:      n,
				No:          v.No,
				Alternative: v.Alternative,
				Status:      v.Status,
				DerivedFrom: append([]domain.Surrogate(nil), v.DerivedFrom...),
			})
		}
	}
	return st
}

// Import rebuilds the state into an empty manager. Objects referenced by
// versions must already exist in the store.
func (m *Manager) Import(st *ManagerState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.designs) != 0 {
		return fmt.Errorf("version: Import needs an empty manager")
	}
	for _, d := range st.Designs {
		if _, dup := m.designs[d.Name]; dup {
			return fmt.Errorf("%w: design %q", ErrDuplicate, d.Name)
		}
		m.designs[d.Name] = &Design{Name: d.Name, Interface: d.Interface}
	}
	// Versions grouped per design in number order.
	vrecs := append([]VersionRecord(nil), st.Versions...)
	sort.Slice(vrecs, func(i, j int) bool {
		if vrecs[i].Design != vrecs[j].Design {
			return vrecs[i].Design < vrecs[j].Design
		}
		return vrecs[i].No < vrecs[j].No
	})
	for _, v := range vrecs {
		d, ok := m.designs[v.Design]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoSuchDesign, v.Design)
		}
		if !m.store.Exists(v.Object) {
			return fmt.Errorf("version: snapshot version object %s missing", v.Object)
		}
		if _, dup := m.byObj[v.Object]; dup {
			return fmt.Errorf("%w: %s", ErrDuplicate, v.Object)
		}
		if !v.Status.Valid() {
			return fmt.Errorf("%w: %q", ErrBadTransition, v.Status)
		}
		info := &Info{
			Object:      v.Object,
			Design:      v.Design,
			No:          v.No,
			Alternative: v.Alternative,
			Status:      v.Status,
			DerivedFrom: append([]domain.Surrogate(nil), v.DerivedFrom...),
		}
		d.versions = append(d.versions, info)
		m.byObj[v.Object] = info
		m.registered.Store(v.Object, struct{}{})
		if info.Status == StatusFrozen {
			m.frozenN.Add(1)
		}
	}
	for _, d := range st.Designs {
		if d.Default == 0 {
			continue
		}
		info, ok := m.byObj[d.Default]
		if !ok || info.Design != d.Name {
			return fmt.Errorf("%w: default %s of %q", ErrNotAVersion, d.Default, d.Name)
		}
		m.designs[d.Name].defaultVer = d.Default
	}
	return nil
}
