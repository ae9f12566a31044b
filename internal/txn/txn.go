package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cadcam/internal/domain"
	"cadcam/internal/object"
)

// Manager coordinates transactions over one object store.
type Manager struct {
	store  *object.Store
	locks  *lockManager
	access *AccessControl
	nextID atomic.Uint64

	// barrier, when set, blocks until every journal record enqueued so
	// far is durable (the database's group-commit tail wait) and surfaces
	// the sticky journal error. Statements call it after mutating the
	// store, outside all store locks, so transactional writes get the
	// same per-statement durability as facade mutations.
	barrier func() error
}

// NewManager creates a transaction manager. Access control defaults to
// full update rights for everyone.
func NewManager(s *object.Store) *Manager {
	return &Manager{
		store:  s,
		locks:  newLockManager(),
		access: NewAccessControl(),
	}
}

// Store exposes the underlying object store (for read-only inspection).
func (m *Manager) Store() *object.Store { return m.store }

// SetDurabilityBarrier installs the per-statement durability wait. Must
// be called before any transaction begins.
func (m *Manager) SetDurabilityBarrier(f func() error) { m.barrier = f }

// syncJournal waits for the durability barrier, if one is installed.
func (m *Manager) syncJournal() error {
	if m.barrier == nil {
		return nil
	}
	return m.barrier()
}

// Access exposes the access-control manager.
func (m *Manager) Access() *AccessControl { return m.access }

// TxnState is a transaction's lifecycle state.
type TxnState uint8

// Transaction states.
const (
	StateActive TxnState = iota
	StateCommitted
	StateAborted
)

// Txn is a strict two-phase transaction. All object access must go
// through the Txn methods, which acquire the necessary locks (including
// lock inheritance) before touching the store. A Txn is used by a single
// goroutine.
type Txn struct {
	id   uint64
	mgr  *Manager
	user string

	mu      sync.Mutex
	state   TxnState
	undo    []func() error
	deletes []domain.Surrogate // applied at commit

	// locked is written by the lock manager from whichever stripe grants a
	// request — possibly a promotion running on another transaction's
	// release path — so it has its own mutex, a leaf below the stripe
	// locks.
	lockMu sync.Mutex
	locked map[domain.Surrogate][]*request
}

// Begin starts a transaction on behalf of a user (for access control;
// "" is an anonymous full-rights user).
func (m *Manager) Begin(user string) *Txn {
	return &Txn{
		id:     m.nextID.Add(1),
		mgr:    m,
		user:   user,
		locked: make(map[domain.Surrogate][]*request),
	}
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// State returns the lifecycle state.
func (t *Txn) State() TxnState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// addLock records a granted request; called by the lock manager while
// holding the granting stripe's mutex.
func (t *Txn) addLock(sur domain.Surrogate, req *request) {
	t.lockMu.Lock()
	t.locked[sur] = append(t.locked[sur], req)
	t.lockMu.Unlock()
}

// HeldLocks reports the objects this transaction holds locks on, with the
// strongest mode per object (diagnostics and tests).
func (t *Txn) HeldLocks() map[domain.Surrogate]Mode {
	t.lockMu.Lock()
	defer t.lockMu.Unlock()
	out := make(map[domain.Surrogate]Mode, len(t.locked))
	for sur, reqs := range t.locked {
		var best Mode
		for _, r := range reqs {
			if r.mode > best {
				best = r.mode
			}
		}
		out[sur] = best
	}
	return out
}

func (t *Txn) active() error {
	if t.state != StateActive {
		return ErrTxnDone
	}
	return nil
}

// lock acquires a lock respecting the access-control cap: a requested X
// on an object the user may only read is downgraded to S (§6: implicit
// locks "should allow no more operations than the access control
// admits"). An explicit write will then fail at checkAccess.
func (t *Txn) lock(sur domain.Surrogate, mode Mode, members []string) error {
	capped := t.mgr.access.CapMode(t.user, sur, mode)
	return t.mgr.locks.acquire(t, sur, capped, members)
}

func (t *Txn) checkAccess(sur domain.Surrogate) error {
	if t.mgr.access.MayUpdate(t.user, sur) {
		return nil
	}
	return fmt.Errorf("%w: user %q may not update %s", ErrLockAccess, t.user, sur)
}

// Commit applies deferred deletes, then releases all locks.
func (t *Txn) Commit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return err
	}
	for _, sur := range t.deletes {
		if err := t.mgr.store.Delete(sur); err != nil {
			// A failed deferred delete aborts the transaction.
			t.state = StateAborted
			undoErr := t.undoAllLocked()
			t.mgr.locks.releaseAll(t)
			return errors.Join(fmt.Errorf("txn: deferred delete of %s failed: %w", sur, err), undoErr)
		}
	}
	t.state = StateCommitted
	t.undo = nil
	t.mgr.locks.releaseAll(t)
	// The deferred deletes above were journaled; a committed transaction
	// is only acknowledged once they are durable.
	return t.mgr.syncJournal()
}

// Abort rolls back every change and releases all locks. A compensation
// the store refuses leaves its change in place; Abort still releases the
// locks and reports every such failure.
func (t *Txn) Abort() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return err
	}
	t.state = StateAborted
	undoErr := t.undoAllLocked()
	t.mgr.locks.releaseAll(t)
	// Compensating operations are journal records too: an acknowledged
	// abort means the compensation is on disk.
	return errors.Join(undoErr, t.mgr.syncJournal())
}

// undoAllLocked runs every compensation, newest first, and returns their
// failures joined.
func (t *Txn) undoAllLocked() error {
	var errs []error
	for i := len(t.undo) - 1; i >= 0; i-- {
		if err := t.undo[i](); err != nil {
			errs = append(errs, fmt.Errorf("txn: undo: %w", err))
		}
	}
	t.undo = nil
	return errors.Join(errs...)
}

// ---- transactional object operations ----

// GetAttr reads an attribute under lock inheritance: the attribute's
// portion is read-locked on the object and, if the value is inherited, on
// every transmitter along the resolution chain (§6: lock inheritance runs
// in the *reverse* direction of data inheritance).
func (t *Txn) GetAttr(sur domain.Surrogate, name string) (domain.Value, error) {
	if err := t.active(); err != nil {
		return nil, err
	}
	if err := t.lockResolutionChain(sur, name, S); err != nil {
		return nil, err
	}
	return t.mgr.store.GetAttr(sur, name)
}

// Members reads a subclass under the same lock-inheritance rule.
func (t *Txn) Members(sur domain.Surrogate, name string) ([]domain.Surrogate, error) {
	if err := t.active(); err != nil {
		return nil, err
	}
	if err := t.lockResolutionChain(sur, name, S); err != nil {
		return nil, err
	}
	return t.mgr.store.Members(sur, name)
}

// lockResolutionChain locks (sur, {member}) and every transmitter the
// resolution visits. The chain comes from the store's route cache; because
// a rebind can slip in between resolving and acquiring the locks, the
// chain is re-resolved after each round of new locks until a round adds
// nothing (the locked set only grows, so the loop terminates). The chain
// carries the structure epochs of every store shard it crosses; once the
// locked set stops growing, the stamp is re-checked so a rebind that
// happened mid-acquisition (by a writer not going through this lock
// manager) forces another resolution round. The re-check is bounded:
// under continuous non-transactional structural churn we keep the locks
// covering the last chain resolved rather than livelock.
func (t *Txn) lockResolutionChain(sur domain.Surrogate, member string, mode Mode) error {
	locked := make(map[domain.Surrogate]bool, 4)
	for stale := 0; ; {
		chain, stamp, err := t.mgr.store.ResolveChainStamped(sur, member)
		if err != nil {
			return err
		}
		grew := false
		for _, cs := range chain {
			if locked[cs] {
				continue
			}
			if err := t.lock(cs, mode, []string{member}); err != nil {
				return err
			}
			locked[cs] = true
			grew = true
		}
		if !grew {
			if t.mgr.store.StampValid(stamp) || stale >= 4 {
				return nil
			}
			stale++
		}
	}
}

// SetAttr writes an attribute under an exclusive portion lock, recording
// an undo entry. Write protection for inherited attributes is enforced by
// the store.
func (t *Txn) SetAttr(sur domain.Surrogate, name string, v domain.Value) error {
	if err := t.active(); err != nil {
		return err
	}
	if err := t.lock(sur, X, []string{name}); err != nil {
		return err
	}
	if err := t.checkAccess(sur); err != nil {
		return err
	}
	before, err := t.mgr.store.GetAttr(sur, name)
	if err != nil {
		return err
	}
	if err := t.mgr.store.SetAttr(sur, name, v); err != nil {
		return err
	}
	t.mu.Lock()
	t.undo = append(t.undo, func() error { return t.mgr.store.SetAttr(sur, name, before) })
	t.mu.Unlock()
	return t.mgr.syncJournal()
}

// NewObject creates an object; creation is undone on abort.
func (t *Txn) NewObject(typeName, className string) (domain.Surrogate, error) {
	if err := t.active(); err != nil {
		return 0, err
	}
	sur, err := t.mgr.store.NewObject(typeName, className)
	if err != nil {
		return 0, err
	}
	if err := t.lock(sur, X, nil); err != nil {
		return 0, err
	}
	t.mu.Lock()
	t.undo = append(t.undo, func() error { return t.mgr.store.Delete(sur) })
	t.mu.Unlock()
	return sur, t.mgr.syncJournal()
}

// NewSubobject creates a subobject under an IX lock on the parent and an
// X lock on the parent's subclass portion.
func (t *Txn) NewSubobject(parent domain.Surrogate, subclass string) (domain.Surrogate, error) {
	if err := t.active(); err != nil {
		return 0, err
	}
	if err := t.lock(parent, IX, nil); err != nil {
		return 0, err
	}
	if err := t.lock(parent, X, []string{subclass}); err != nil {
		return 0, err
	}
	if err := t.checkAccess(parent); err != nil {
		return 0, err
	}
	sur, err := t.mgr.store.NewSubobject(parent, subclass)
	if err != nil {
		return 0, err
	}
	if err := t.lock(sur, X, nil); err != nil {
		return 0, err
	}
	t.mu.Lock()
	t.undo = append(t.undo, func() error { return t.mgr.store.Delete(sur) })
	t.mu.Unlock()
	return sur, t.mgr.syncJournal()
}

// Bind creates an inheritance binding; undone on abort.
func (t *Txn) Bind(relType string, inheritor, transmitter domain.Surrogate) (domain.Surrogate, error) {
	if err := t.active(); err != nil {
		return 0, err
	}
	if err := t.lock(inheritor, X, nil); err != nil {
		return 0, err
	}
	// The transmitter is read-locked: binding reads but does not change it.
	if err := t.lock(transmitter, S, nil); err != nil {
		return 0, err
	}
	if err := t.checkAccess(inheritor); err != nil {
		return 0, err
	}
	bsur, err := t.mgr.store.Bind(relType, inheritor, transmitter)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	t.undo = append(t.undo, func() error { return t.mgr.store.Unbind(relType, inheritor) })
	t.mu.Unlock()
	return bsur, t.mgr.syncJournal()
}

// Relate creates a top-level relationship object; undone on abort.
func (t *Txn) Relate(relType string, parts object.Participants) (domain.Surrogate, error) {
	if err := t.active(); err != nil {
		return 0, err
	}
	if err := t.lockParticipants(parts); err != nil {
		return 0, err
	}
	sur, err := t.mgr.store.Relate(relType, parts)
	if err != nil {
		return 0, err
	}
	if err := t.lock(sur, X, nil); err != nil {
		return 0, err
	}
	t.mu.Lock()
	t.undo = append(t.undo, func() error { return t.mgr.store.Delete(sur) })
	t.mu.Unlock()
	return sur, t.mgr.syncJournal()
}

// RelateIn creates a relationship in a subclass of a complex object.
func (t *Txn) RelateIn(owner domain.Surrogate, subrel string, parts object.Participants) (domain.Surrogate, error) {
	if err := t.active(); err != nil {
		return 0, err
	}
	if err := t.lock(owner, IX, nil); err != nil {
		return 0, err
	}
	if err := t.lock(owner, X, []string{subrel}); err != nil {
		return 0, err
	}
	if err := t.checkAccess(owner); err != nil {
		return 0, err
	}
	if err := t.lockParticipants(parts); err != nil {
		return 0, err
	}
	sur, err := t.mgr.store.RelateIn(owner, subrel, parts)
	if err != nil {
		return 0, err
	}
	if err := t.lock(sur, X, nil); err != nil {
		return 0, err
	}
	t.mu.Lock()
	t.undo = append(t.undo, func() error { return t.mgr.store.Delete(sur) })
	t.mu.Unlock()
	return sur, t.mgr.syncJournal()
}

func (t *Txn) lockParticipants(parts object.Participants) error {
	for _, v := range parts {
		switch x := v.(type) {
		case domain.Ref:
			if err := t.lock(domain.Surrogate(x), S, nil); err != nil {
				return err
			}
		case *domain.Set:
			for _, e := range x.Elems() {
				if ref, ok := e.(domain.Ref); ok {
					if err := t.lock(domain.Surrogate(ref), S, nil); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// Delete marks an object for deletion at commit time (deferred, so abort
// needs no resurrection). The object is exclusively locked immediately.
func (t *Txn) Delete(sur domain.Surrogate) error {
	if err := t.active(); err != nil {
		return err
	}
	if err := t.lock(sur, X, nil); err != nil {
		return err
	}
	if err := t.checkAccess(sur); err != nil {
		return err
	}
	t.mu.Lock()
	t.deletes = append(t.deletes, sur)
	t.mu.Unlock()
	return nil
}
