// Package version implements the version management sketched in §6 of the
// paper: design objects as sets of versions organized in a derivation
// graph, alternatives (parallel development branches), classification of
// versions by correctness status, default versions, and *generic*
// component relationships whose concrete version is selected at assembly
// time by one of three policies — top-down (query), bottom-up (default
// version) or environment-guided, following [Wilk87] as the paper cites
// it.
package version

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cadcam/internal/domain"
	"cadcam/internal/expr"
	"cadcam/internal/object"
)

// Status classifies a version "according to its degree of correctness"
// (§6). The order is the promotion order.
type Status string

// Version statuses, in promotion order.
const (
	StatusInWork   Status = "in_work"
	StatusStable   Status = "stable"
	StatusReleased Status = "released"
	StatusFrozen   Status = "frozen"
)

var statusRank = map[Status]int{
	StatusInWork:   0,
	StatusStable:   1,
	StatusReleased: 2,
	StatusFrozen:   3,
}

// Valid reports whether s is a declared status.
func (s Status) Valid() bool {
	_, ok := statusRank[s]
	return ok
}

// Errors returned by the manager; test with errors.Is.
var (
	ErrNoSuchDesign   = errors.New("version: no such design object")
	ErrDuplicate      = errors.New("version: already registered")
	ErrNotAVersion    = errors.New("version: object is not a registered version")
	ErrNoDefault      = errors.New("version: design object has no default version")
	ErrNoMatch        = errors.New("version: no version satisfies the selection")
	ErrFrozen         = errors.New("version: version is frozen")
	ErrBadTransition  = errors.New("version: invalid status transition")
	ErrNotEnvironment = errors.New("version: environment does not choose a version for this design")
)

// Info describes one registered version of a design object.
type Info struct {
	Object      domain.Surrogate
	Design      string
	No          int    // 1-based version number in registration order
	Alternative string // branch label, "" = main line
	Status      Status
	DerivedFrom []domain.Surrogate // predecessor versions (derivation DAG)
}

// Design is a design object: the abstraction (optionally an interface
// object) together with its set of versions.
type Design struct {
	Name string
	// Interface is the abstraction object versions must be bound to (0 =
	// unconstrained). With an interface set, AddVersion verifies the
	// candidate inherits from it, tying §6's versions to §4.2's
	// interfaces: "the implementations of an interface can be seen as the
	// versions of a design object which is represented by the interface".
	Interface domain.Surrogate

	versions   []*Info
	defaultVer domain.Surrogate
}

// Manager tracks design objects and versions over an object store.
type Manager struct {
	mu      sync.RWMutex
	store   *object.Store
	designs map[string]*Design
	byObj   map[domain.Surrogate]*Info
	// frozenN counts versions in StatusFrozen. Frozen is terminal, so the
	// count only grows; Frozen() uses it to answer "nothing is frozen"
	// without taking mu — that check sits on the store's hot write path.
	frozenN atomic.Int32
	// registered mirrors byObj's keys for the lock-free Registered test:
	// the store's delete guard asks it under store locks that AddVersion's
	// own store reads wait on, so it must not take mu. Versions are never
	// unregistered.
	registered sync.Map // domain.Surrogate -> struct{}
}

// NewManager creates an empty version manager for a store.
func NewManager(s *object.Store) *Manager {
	return &Manager{
		store:   s,
		designs: make(map[string]*Design),
		byObj:   make(map[domain.Surrogate]*Info),
	}
}

// DefineDesign registers a design object. iface may be 0.
func (m *Manager) DefineDesign(name string, iface domain.Surrogate) (*Design, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name == "" {
		return nil, fmt.Errorf("version: design needs a name")
	}
	if _, dup := m.designs[name]; dup {
		return nil, fmt.Errorf("%w: design %q", ErrDuplicate, name)
	}
	if iface != 0 && !m.store.Exists(iface) {
		return nil, fmt.Errorf("%w: interface %s", object.ErrNoSuchObject, iface)
	}
	d := &Design{Name: name, Interface: iface}
	m.designs[name] = d
	return d, nil
}

// Design resolves a design object by name.
func (m *Manager) Design(name string) (*Design, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.designs[name]
	return d, ok
}

// DesignNames lists registered designs, sorted.
func (m *Manager) DesignNames() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.designs))
	for n := range m.designs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddVersion registers obj as a new version of the named design, derived
// from the given predecessors (which must be versions of the same
// design). The new version starts in StatusInWork on the given
// alternative ("" = main line).
func (m *Manager) AddVersion(design string, obj domain.Surrogate, derivedFrom []domain.Surrogate, alternative string) (*Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.designs[design]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchDesign, design)
	}
	if !m.store.Exists(obj) {
		return nil, fmt.Errorf("%w: %s", object.ErrNoSuchObject, obj)
	}
	if _, dup := m.byObj[obj]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, obj)
	}
	if d.Interface != 0 && !m.inheritsFromLocked(obj, d.Interface) {
		return nil, fmt.Errorf("version: %s is not bound to the design's interface %s", obj, d.Interface)
	}
	for _, p := range derivedFrom {
		pi, ok := m.byObj[p]
		if !ok || pi.Design != design {
			return nil, fmt.Errorf("%w: predecessor %s", ErrNotAVersion, p)
		}
	}
	info := &Info{
		Object:      obj,
		Design:      design,
		No:          len(d.versions) + 1,
		Alternative: alternative,
		Status:      StatusInWork,
		DerivedFrom: append([]domain.Surrogate(nil), derivedFrom...),
	}
	// Publish before re-checking existence: a Delete either sees the
	// registration and refuses, or ran first and the re-check sees it.
	m.registered.Store(obj, struct{}{})
	if !m.store.Exists(obj) {
		m.registered.Delete(obj)
		return nil, fmt.Errorf("%w: %s", object.ErrNoSuchObject, obj)
	}
	d.versions = append(d.versions, info)
	m.byObj[obj] = info
	return info, nil
}

// Registered reports whether obj is a registered version of some design.
// It takes no lock, so the store's delete guard may call it.
func (m *Manager) Registered(obj domain.Surrogate) bool {
	_, ok := m.registered.Load(obj)
	return ok
}

func (m *Manager) inheritsFromLocked(obj, iface domain.Surrogate) bool {
	for _, b := range m.store.BindingsOfInheritor(obj) {
		if b.Transmitter == iface {
			return true
		}
	}
	return false
}

// InfoOf returns the version record of an object.
func (m *Manager) InfoOf(obj domain.Surrogate) (*Info, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	i, ok := m.byObj[obj]
	return i, ok
}

// Versions lists a design's versions in registration order.
func (m *Manager) Versions(design string) ([]*Info, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.designs[design]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchDesign, design)
	}
	return append([]*Info(nil), d.versions...), nil
}

// Alternatives groups a design's versions by branch label.
func (m *Manager) Alternatives(design string) (map[string][]*Info, error) {
	vs, err := m.Versions(design)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]*Info)
	for _, v := range vs {
		out[v.Alternative] = append(out[v.Alternative], v)
	}
	return out, nil
}

// SetStatus changes a version's classification. Promotions follow the
// rank order; demotion is only allowed from stable back to in-work (a
// released or frozen version never loses its guarantee).
func (m *Manager) SetStatus(obj domain.Surrogate, st Status) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !st.Valid() {
		return fmt.Errorf("%w: unknown status %q", ErrBadTransition, st)
	}
	info, ok := m.byObj[obj]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotAVersion, obj)
	}
	from, to := statusRank[info.Status], statusRank[st]
	switch {
	case info.Status == StatusFrozen:
		return fmt.Errorf("%w: %s", ErrFrozen, obj)
	case to >= from: // promotion or same
	case info.Status == StatusStable && st == StatusInWork: // allowed demotion
	default:
		return fmt.Errorf("%w: %s -> %s", ErrBadTransition, info.Status, st)
	}
	info.Status = st
	if st == StatusFrozen {
		m.frozenN.Add(1)
	}
	return nil
}

// Frozen reports whether the object is a frozen version; the database
// facade refuses writes to frozen versions.
func (m *Manager) Frozen(obj domain.Surrogate) bool {
	if m.frozenN.Load() == 0 {
		return false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	i, ok := m.byObj[obj]
	return ok && i.Status == StatusFrozen
}

// SetDefault selects the design's default version (the bottom-up
// selection anchor: "Design objects supply a specific version as the
// default version", §6).
func (m *Manager) SetDefault(design string, obj domain.Surrogate) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.designs[design]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchDesign, design)
	}
	info, ok := m.byObj[obj]
	if !ok || info.Design != design {
		return fmt.Errorf("%w: %s", ErrNotAVersion, obj)
	}
	d.defaultVer = obj
	return nil
}

// Default returns the design's default version.
func (m *Manager) Default(design string) (domain.Surrogate, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.designs[design]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchDesign, design)
	}
	if d.defaultVer == 0 {
		return 0, fmt.Errorf("%w: %q", ErrNoDefault, design)
	}
	return d.defaultVer, nil
}

// DerivationAncestors walks the derivation DAG upward from a version and
// returns all (transitive) predecessors, breadth-first.
func (m *Manager) DerivationAncestors(obj domain.Surrogate) ([]domain.Surrogate, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.byObj[obj]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotAVersion, obj)
	}
	var out []domain.Surrogate
	seen := map[domain.Surrogate]bool{obj: true}
	frontier := []domain.Surrogate{obj}
	for len(frontier) > 0 {
		var next []domain.Surrogate
		for _, cur := range frontier {
			for _, p := range m.byObj[cur].DerivedFrom {
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	return out, nil
}

// Successors returns the direct derivation successors of a version.
func (m *Manager) Successors(obj domain.Surrogate) ([]domain.Surrogate, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	info, ok := m.byObj[obj]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotAVersion, obj)
	}
	d := m.designs[info.Design]
	var out []domain.Surrogate
	for _, v := range d.versions {
		for _, p := range v.DerivedFrom {
			if p == obj {
				out = append(out, v.Object)
				break
			}
		}
	}
	return out, nil
}

// metaEnv exposes version metadata (Status, VersionNo, Alternative) as
// pseudo-attributes over the version object's own environment, so
// top-down selection queries can mix data and metadata:
//
//	Status = released and Length <= 10
type metaEnv struct {
	base expr.Env
	info *Info
}

func (e *metaEnv) Lookup(name string) (domain.Value, bool) {
	switch name {
	case "Status":
		return domain.Sym(string(e.info.Status)), true
	case "VersionNo":
		return domain.Int(int64(e.info.No)), true
	case "Alternative":
		return domain.Str(e.info.Alternative), true
	}
	return e.base.Lookup(name)
}

func (e *metaEnv) Collection(name string) ([]domain.Value, bool) {
	return e.base.Collection(name)
}

func (e *metaEnv) AttrOf(ref domain.Ref, attr string) (domain.Value, bool) {
	return e.base.AttrOf(ref, attr)
}

func (e *metaEnv) CollectionOf(ref domain.Ref, name string) ([]domain.Value, bool) {
	return e.base.CollectionOf(ref, name)
}
