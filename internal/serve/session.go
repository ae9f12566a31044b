package serve

import (
	"encoding/json"
	"fmt"

	"cadcam"
	"cadcam/internal/repl"
)

// session is one connection's server-side state. The session owns its
// transaction and its pinned snapshots: whatever the client leaves
// behind on disconnect — a transaction holding locks, a snapshot
// pinning MVCC history — is torn down by the session, never leaked.
//
// Two goroutines per session: the reader pulls frames off the
// transport, makes the admission decision, and enqueues; the worker
// executes in queue order and writes responses — so pipelined requests
// always answer in request order, and a rejected request's CodeBusy
// response takes its place in the same ordered stream.
type session struct {
	srv  *Server
	conn repl.Conn

	// capRejected: accepted over MaxSessions; the first request is
	// answered CodeBusy and the session closes.
	capRejected bool

	// done is closed by teardown so a reader blocked handing work to an
	// already-exited worker can bail instead of leaking.
	done chan struct{}

	// Session state below is owned by the worker goroutine.
	authed   bool
	readOnly bool
	user     string
	txn      *cadcam.Txn
	snaps    map[uint64]*cadcam.SnapshotView
	nextSnap uint64
}

// item is one admitted (or pre-rejected) request flowing reader→worker.
type item struct {
	req *Request
	// reject, when non-zero, is the admission decision made at read
	// time: the worker answers with this code instead of executing.
	reject byte
}

// mutating reports whether a request kind enters the write path (and is
// therefore subject to admission control and read-only rejection).
func mutating(kind byte) bool {
	switch kind {
	case ReqNew, ReqSet, ReqBind, ReqUnbind, ReqDelete, ReqBegin:
		return true
	}
	return false
}

// journaling reports whether a request kind writes journal records
// directly — the kinds with a durability→acknowledgment gap. Begin is
// mutating (admission control applies) but journals nothing, and
// faulting its response would desynchronize the client's and server's
// idea of whether a session transaction exists, which no lost-ack
// schedule can legitimately produce: a real client that loses a
// response tears the connection down, it does not keep using the
// session.
func journaling(kind byte) bool {
	switch kind {
	case ReqNew, ReqSet, ReqBind, ReqUnbind, ReqDelete:
		return true
	}
	return false
}

// run is the session body: spawn the reader, execute until the queue
// closes or drain empties it, then tear down.
func (s *session) run() {
	defer s.teardown()
	queue := make(chan item, s.srv.cfg.pipelineDepth())
	go s.readLoop(queue)
	s.workLoop(queue)
}

// readLoop pulls frames, decodes, admits, enqueues. It closes the queue
// when the transport dies or a frame fails validation (the protocol
// cannot resynchronize inside a corrupted stream, so the session ends).
func (s *session) readLoop(queue chan<- item) {
	defer close(queue)
	for {
		raw, err := s.conn.Recv()
		if err != nil {
			return // disconnect (clean or not): worker drains, teardown reclaims
		}
		req, err := DecodeRequest(raw)
		if err != nil {
			s.srv.protoErrors.Add(1)
			s.srv.logf("serve: corrupt request frame: %v", err)
			return
		}
		it := item{req: req}
		switch {
		case s.srv.Draining():
			it.reject = CodeDraining
		case s.srv.busy.Load() && mutating(req.Kind):
			it.reject = CodeBusy
		}
		s.srv.requests.Add(1)
		select {
		case queue <- it:
		case <-s.done:
			return // worker already gone; the enqueue would never drain
		}
		if hw := int64(len(queue)); hw > s.srv.pipelineHW.Load() {
			s.srv.pipelineHW.Store(hw) // racy max: a gauge, not an invariant
		}
	}
}

// workLoop executes admitted requests in order. On drain it finishes
// what is already queued, then returns so teardown can reclaim the
// session's transaction and pins.
func (s *session) workLoop(queue <-chan item) {
	for {
		select {
		case it, ok := <-queue:
			if !ok {
				return
			}
			if s.handle(it) {
				return
			}
		case <-s.srv.drainCh:
			for {
				select {
				case it, ok := <-queue:
					if !ok {
						return
					}
					if s.handle(it) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// handle executes one request and writes its response. It reports
// whether the session should stop (cap rejection delivered, or the
// transport write failed).
func (s *session) handle(it item) (stop bool) {
	req := it.req
	var resp *Response
	switch {
	case s.capRejected:
		resp = errorResp(req, CodeBusy, "session limit reached")
		s.srv.busyRejected.Add(1)
		stop = true
	case it.reject == CodeDraining:
		resp = errorResp(req, CodeDraining, "server is draining")
		s.srv.drainRejected.Add(1)
	case it.reject == CodeBusy:
		resp = errorResp(req, CodeBusy, "journal pipeline stalled")
		s.srv.busyRejected.Add(1)
	case !s.authed && req.Kind != ReqHello:
		resp = errorResp(req, CodeBadRequest, "first request must be Hello")
	default:
		resp = s.exec(req)
	}
	// The acknowledgment gap: a kill between this point and the Send
	// below loses the response but never the durable effect — which is
	// exactly what the crash matrix verifies. The error kind downgrades
	// a durable success to an "unknown outcome" error response.
	if resp.Code == CodeOK && journaling(req.Kind) {
		if err := fpAckGap.Hit(); err != nil {
			resp = errorResp(req, CodeError, fmt.Sprintf("ack dropped: %v", err))
		}
	}
	if resp.Code != CodeOK {
		s.srv.opErrors.Add(1)
	}
	if err := s.conn.Send(resp.Encode()); err != nil {
		return true
	}
	s.srv.responses.Add(1)
	return stop
}

// exec dispatches one authenticated (or Hello) request.
func (s *session) exec(req *Request) *Response {
	switch req.Kind {
	case ReqHello:
		return s.execHello(req)
	case ReqPing:
		return &Response{ID: req.ID, Kind: req.Kind, Seq: req.Snap}
	case ReqStats:
		return s.execStats(req)
	case ReqBegin:
		return s.execBegin(req)
	case ReqCommit, ReqAbort:
		return s.execEnd(req)
	case ReqSnapOpen:
		return s.execSnapOpen(req)
	case ReqSnapGet:
		return s.execSnapGet(req)
	case ReqSnapClose:
		return s.execSnapClose(req)
	}
	if mutating(req.Kind) && s.readOnly {
		return errorResp(req, CodeReadOnly, "read-only session")
	}
	if s.srv.db == nil {
		return s.execFollowerRead(req)
	}
	return s.execDB(req)
}

func (s *session) execHello(req *Request) *Response {
	if s.authed {
		return errorResp(req, CodeBadRequest, "session already established")
	}
	if req.Snap != ProtocolVersion {
		return errorResp(req, CodeAuth, fmt.Sprintf("protocol version %d not supported", req.Snap))
	}
	if s.srv.cfg.AuthToken != "" && req.Name != s.srv.cfg.AuthToken {
		return errorResp(req, CodeAuth, "bad token")
	}
	s.authed = true
	s.user = req.Name2
	s.readOnly = s.srv.fol != nil || req.Flags&FlagReadOnly != 0
	flags := byte(0)
	if s.readOnly {
		flags = FlagReadOnly
	}
	return &Response{ID: req.ID, Kind: req.Kind, Seq: ProtocolVersion, Sur: cadcam.Surrogate(flags)}
}

// StatsReply is the JSON document a ReqStats response carries.
type StatsReply struct {
	Server ServerStats         `json:"server"`
	DB     *cadcam.DBStats     `json:"db,omitempty"`
	Repl   *repl.FollowerStats `json:"repl,omitempty"`
}

func (s *session) execStats(req *Request) *Response {
	blob := StatsReply{Server: s.srv.Stats()}
	if s.srv.db != nil {
		st := s.srv.db.Stats()
		blob.DB = &st
	}
	if s.srv.fol != nil {
		fs := s.srv.fol.Stats()
		blob.Repl = &fs
	}
	b, err := json.Marshal(&blob)
	if err != nil {
		return errorResp(req, CodeError, err.Error())
	}
	return &Response{ID: req.ID, Kind: req.Kind, Blob: b}
}

func (s *session) execBegin(req *Request) *Response {
	if s.readOnly {
		return errorResp(req, CodeReadOnly, "read-only session")
	}
	if s.txn != nil {
		return errorResp(req, CodeBadRequest, "transaction already open")
	}
	s.txn = s.srv.db.Begin(s.user)
	return &Response{ID: req.ID, Kind: req.Kind, Seq: s.txn.ID()}
}

func (s *session) execEnd(req *Request) *Response {
	if s.txn == nil {
		return errorResp(req, CodeBadRequest, "no open transaction")
	}
	t := s.txn
	s.txn = nil
	var err error
	if req.Kind == ReqCommit {
		err = t.Commit()
	} else {
		err = t.Abort()
	}
	if err != nil {
		return errorResp(req, CodeError, err.Error())
	}
	return &Response{ID: req.ID, Kind: req.Kind, Seq: t.ID()}
}

func (s *session) execSnapOpen(req *Request) *Response {
	if len(s.snaps) >= s.srv.cfg.maxSnapshots() {
		return errorResp(req, CodeError, "snapshot limit reached")
	}
	var v *cadcam.SnapshotView
	if s.srv.db != nil {
		v = s.srv.db.SnapshotView()
	} else {
		fv, err := s.srv.fol.SnapshotView()
		if err != nil {
			return errorResp(req, CodeError, err.Error())
		}
		v = fv
	}
	s.nextSnap++
	s.snaps[s.nextSnap] = v
	return &Response{ID: req.ID, Kind: req.Kind, Seq: v.Seq(), Sur: cadcam.Surrogate(s.nextSnap)}
}

func (s *session) execSnapGet(req *Request) *Response {
	v, ok := s.snaps[req.Snap]
	if !ok {
		return errorResp(req, CodeBadRequest, fmt.Sprintf("unknown snapshot handle %d", req.Snap))
	}
	val, err := v.GetAttr(req.Sur, req.Name)
	if err != nil {
		return errorResp(req, CodeError, err.Error())
	}
	return &Response{ID: req.ID, Kind: req.Kind, Value: val}
}

func (s *session) execSnapClose(req *Request) *Response {
	v, ok := s.snaps[req.Snap]
	if !ok {
		return errorResp(req, CodeBadRequest, fmt.Sprintf("unknown snapshot handle %d", req.Snap))
	}
	delete(s.snaps, req.Snap)
	v.Release()
	return &Response{ID: req.ID, Kind: req.Kind}
}

// execDB runs the object operations against the primary database —
// through the session transaction when one is open (strict 2PL), at
// statement-level auto-commit otherwise.
func (s *session) execDB(req *Request) *Response {
	db, t := s.srv.db, s.txn
	switch req.Kind {
	case ReqNew:
		var sur cadcam.Surrogate
		var err error
		if t != nil {
			sur, err = t.NewObject(req.Name, req.Name2)
		} else {
			sur, err = db.NewObject(req.Name, req.Name2)
		}
		return surResp(req, sur, err)
	case ReqGet:
		var val cadcam.Value
		var err error
		if t != nil {
			val, err = t.GetAttr(req.Sur, req.Name)
		} else {
			val, err = db.GetAttr(req.Sur, req.Name)
		}
		return valResp(req, val, err)
	case ReqSet:
		var err error
		if t != nil {
			err = t.SetAttr(req.Sur, req.Name, req.Value)
		} else {
			err = db.SetAttr(req.Sur, req.Name, req.Value)
		}
		return surResp(req, 0, err)
	case ReqBind:
		var sur cadcam.Surrogate
		var err error
		if t != nil {
			sur, err = t.Bind(req.Name, req.Sur, req.Sur2)
		} else {
			sur, err = db.Bind(req.Name, req.Sur, req.Sur2)
		}
		return surResp(req, sur, err)
	case ReqUnbind:
		if t != nil {
			return errorResp(req, CodeBadRequest, "unbind inside a transaction is not supported")
		}
		return surResp(req, 0, db.Unbind(req.Name, req.Sur))
	case ReqDelete:
		var err error
		if t != nil {
			err = t.Delete(req.Sur)
		} else {
			err = db.Delete(req.Sur)
		}
		return surResp(req, 0, err)
	case ReqQuery:
		surs, err := db.Query(req.Name, req.Name2)
		if err != nil {
			return errorResp(req, CodeError, err.Error())
		}
		return &Response{ID: req.ID, Kind: req.Kind, Surs: surs}
	case ReqExplain:
		text, err := db.Explain(req.Name, req.Name2)
		if err != nil {
			return errorResp(req, CodeError, err.Error())
		}
		return &Response{ID: req.ID, Kind: req.Kind, Blob: []byte(text)}
	}
	return errorResp(req, CodeBadRequest, "unhandled request kind "+kindName(req.Kind))
}

// execFollowerRead serves the read-path requests over the follower
// backend: each read pins a snapshot at the replica's applied sequence,
// resolves, and releases.
func (s *session) execFollowerRead(req *Request) *Response {
	v, err := s.srv.fol.SnapshotView()
	if err != nil {
		return errorResp(req, CodeError, err.Error())
	}
	defer v.Release()
	switch req.Kind {
	case ReqGet:
		val, err := v.GetAttr(req.Sur, req.Name)
		return valResp(req, val, err)
	case ReqQuery:
		surs, err := v.Query(req.Name, req.Name2)
		if err != nil {
			return errorResp(req, CodeError, err.Error())
		}
		return &Response{ID: req.ID, Kind: req.Kind, Surs: surs}
	case ReqExplain:
		text, err := v.Explain(req.Name, req.Name2)
		if err != nil {
			return errorResp(req, CodeError, err.Error())
		}
		return &Response{ID: req.ID, Kind: req.Kind, Blob: []byte(text)}
	}
	return errorResp(req, CodeBadRequest, "unhandled request kind "+kindName(req.Kind))
}

// teardown reclaims everything the session owns — abort the open
// transaction (releasing its locks), release every pinned snapshot,
// close the transport — and unregisters it. Runs exactly once, on every
// exit path: clean disconnect, protocol error, drain, force-close.
func (s *session) teardown() {
	if s.txn != nil {
		if s.srv.Draining() {
			// The drain-abort failpoint: one evaluation per transaction
			// the drain path reclaims. The error kind is counted and the
			// abort proceeds — an injected fault must not leak locks.
			if err := fpDrainAbort.Hit(); err != nil {
				s.srv.logf("serve: drain-abort failpoint: %v", err)
			}
		}
		// A failed abort means the compensation records may never
		// reach disk (a poisoned journal); the locks are released
		// either way, but the operator must hear of it.
		if err := s.txn.Abort(); err != nil {
			s.srv.logf("serve: teardown abort of txn %d for user %q: %v", s.txn.ID(), s.user, err)
		}
		s.txn = nil
		s.srv.txnsAborted.Add(1)
	}
	for h, v := range s.snaps {
		v.Release()
		delete(s.snaps, h)
		s.srv.snapsReleased.Add(1)
	}
	close(s.done)
	s.conn.Close()
	s.srv.removeSession(s)
}

// errorResp builds an error response for a request.
func errorResp(req *Request, code byte, msg string) *Response {
	return &Response{ID: req.ID, Kind: req.Kind, Code: code, Msg: msg}
}

// surResp builds a success-or-error response carrying a surrogate.
func surResp(req *Request, sur cadcam.Surrogate, err error) *Response {
	if err != nil {
		return errorResp(req, CodeError, err.Error())
	}
	return &Response{ID: req.ID, Kind: req.Kind, Sur: sur}
}

// valResp builds a success-or-error response carrying a value.
func valResp(req *Request, val cadcam.Value, err error) *Response {
	if err != nil {
		return errorResp(req, CodeError, err.Error())
	}
	return &Response{ID: req.ID, Kind: req.Kind, Value: val}
}
