package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
)

// Conn is the message transport between a shipper and a follower: an
// ordered, message-framed, bidirectional channel. Implementations need
// not be reliable — every failure mode short of silent corruption of a
// CRC-valid frame is recovered above this layer.
type Conn interface {
	Send(b []byte) error
	Recv() ([]byte, error)
	Close() error
}

// Dialer opens a fresh connection to a shipper; the follower redials
// through it on every retry.
type Dialer func() (Conn, error)

// pipeConn is an in-process Conn pair for same-process replication and
// tests. Either end's Close terminates both directions; a receiver
// drains messages already in flight before observing EOF.
type pipeConn struct {
	send chan []byte
	recv chan []byte
	done chan struct{}
	once *sync.Once
}

// Pipe returns the two ends of an in-process connection.
func Pipe() (Conn, Conn) {
	a := make(chan []byte, 16)
	b := make(chan []byte, 16)
	done := make(chan struct{})
	once := &sync.Once{}
	return &pipeConn{send: a, recv: b, done: done, once: once},
		&pipeConn{send: b, recv: a, done: done, once: once}
}

func (p *pipeConn) Send(b []byte) error {
	msg := append([]byte(nil), b...)
	select {
	case <-p.done:
		return io.ErrClosedPipe
	default:
	}
	select {
	case p.send <- msg:
		return nil
	case <-p.done:
		return io.ErrClosedPipe
	}
}

func (p *pipeConn) Recv() ([]byte, error) {
	select {
	case b := <-p.recv:
		return b, nil
	case <-p.done:
		select {
		case b := <-p.recv:
			return b, nil
		default:
			return nil, io.EOF
		}
	}
}

func (p *pipeConn) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

// maxStreamMessage bounds the length prefix a stream conn will trust,
// so a corrupted or hostile peer cannot make it allocate unbounded
// memory. Generous enough for a full checkpoint snapshot frame.
const maxStreamMessage = 1 << 30

// streamReadBuffer is the size of each stream conn's read buffer: one
// read syscall returns a message's prefix, its body and any pipelined
// messages queued behind it. A larger body bypasses the buffer and is
// read straight into the message.
const streamReadBuffer = 4 << 10

// streamEagerAlloc is the largest body Recv allocates whole on the
// strength of the length prefix alone. A longer body grows as its bytes
// arrive, so a prefix that lies costs the receiver no more memory than
// the peer actually sends (at most twice that, from the doubling).
const streamEagerAlloc = 64 << 10

// streamConn frames messages over any byte stream (a TCP connection, a
// unix socket, a pair of pipes) with a 4-byte little-endian length
// prefix. Frame integrity still comes from the CRC inside each message.
//
// Each Send is one vectored write of prefix and message (a single
// writev on a TCP or unix connection, so the pair leaves as one
// segment and the peer wakes once); each Recv reads through a buffer,
// so a small message costs one read syscall, or none when it arrived
// behind the previous one.
type streamConn struct {
	rw io.ReadWriteCloser

	// Send's scratch, reused so a Send allocates nothing.
	wm   sync.Mutex // one Send at a time
	whdr [4]byte
	iov  [2][]byte
	bufs net.Buffers

	rm   sync.Mutex // one Recv at a time
	r    *bufio.Reader
	rhdr [4]byte
	rerr error
}

// StreamConn wraps a byte stream as a message Conn — the process-to-
// process transport.
func StreamConn(rw io.ReadWriteCloser) Conn {
	return &streamConn{rw: rw, r: bufio.NewReaderSize(rw, streamReadBuffer)}
}

func (s *streamConn) Send(b []byte) error {
	s.wm.Lock()
	defer s.wm.Unlock()
	binary.LittleEndian.PutUint32(s.whdr[:], uint32(len(b)))
	s.iov = [2][]byte{s.whdr[:], b}
	s.bufs = s.iov[:]
	_, err := s.bufs.WriteTo(s.rw)
	s.iov[1] = nil // do not pin the caller's message
	return err
}

// Recv returns the next message. The first error is sticky: a stream
// that failed mid-message, or carried a prefix above maxStreamMessage,
// has lost its framing and cannot be resynchronised.
func (s *streamConn) Recv() ([]byte, error) {
	s.rm.Lock()
	defer s.rm.Unlock()
	if s.rerr != nil {
		return nil, s.rerr
	}
	b, err := s.recv()
	if err != nil {
		s.rerr = err
	}
	return b, err
}

func (s *streamConn) recv() ([]byte, error) {
	if _, err := io.ReadFull(s.r, s.rhdr[:]); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(s.rhdr[:])
	if size > maxStreamMessage {
		return nil, ErrFrame
	}
	n := int(size)
	b := make([]byte, min(n, streamEagerAlloc))
	for off := 0; ; {
		if _, err := io.ReadFull(s.r, b[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the prefix promised more
			}
			return nil, err
		}
		if len(b) == n {
			return b, nil
		}
		off = len(b)
		b = append(b, make([]byte, min(n-off, off))...)
	}
}

func (s *streamConn) Close() error { return s.rw.Close() }

// isClosed reports errors that mean the peer hung up cleanly rather
// than a fault worth recording.
func isClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed)
}
