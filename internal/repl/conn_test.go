package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// tcpPair returns the two ends of a TCP loopback connection.
func tcpPair(tb testing.TB) (net.Conn, net.Conn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		a.Close()
		tb.Fatal(acc.err)
	}
	tb.Cleanup(func() { a.Close(); acc.c.Close() })
	return a, acc.c
}

// streamPairs names the byte streams the transport tests run over.
var streamPairs = []struct {
	name string
	pair func(testing.TB) (net.Conn, net.Conn)
}{
	{"tcp", tcpPair},
	{"pipe", func(tb testing.TB) (net.Conn, net.Conn) {
		a, b := net.Pipe()
		tb.Cleanup(func() { a.Close(); b.Close() })
		return a, b
	}},
}

// prefixed is the wire form of one message: its 4-byte little-endian
// length, then the message.
func prefixed(msg []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(msg)))
	return append(out, msg...)
}

// readOnly is a byte stream that replays fixed input; writes fail.
type readOnly struct{ io.Reader }

func (readOnly) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }
func (readOnly) Close() error              { return nil }

func streamOf(b []byte) Conn { return StreamConn(readOnly{bytes.NewReader(b)}) }

// TestStreamConnPipelinedRoundTrip: messages sent back to back, of
// sizes around the read buffer and far beyond it, arrive intact and in
// order — whatever share of each one a single buffered read returned.
func TestStreamConnPipelinedRoundTrip(t *testing.T) {
	sizes := []int{0, 1, streamReadBuffer - 1, streamReadBuffer, streamReadBuffer + 1, 1 << 20, 0, 3}
	msgs := make([][]byte, len(sizes))
	for i, n := range sizes {
		msgs[i] = make([]byte, n)
		for j := range msgs[i] {
			msgs[i][j] = byte(i*31 + j*7)
		}
	}
	for _, p := range streamPairs {
		t.Run(p.name, func(t *testing.T) {
			a, b := p.pair(t)
			tx, rx := StreamConn(a), StreamConn(b)
			sent := make(chan error, 1)
			go func() {
				for _, m := range msgs {
					if err := tx.Send(m); err != nil {
						sent <- err
						return
					}
				}
				sent <- nil
			}()
			for i, want := range msgs {
				got, err := rx.Recv()
				if err != nil {
					t.Fatalf("message %d (%d bytes): %v", i, len(want), err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("message %d: got %d bytes, want %d intact", i, len(got), len(want))
				}
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStreamConnConcurrentSenders: Sends from several goroutines share
// the conn's write scratch under its lock, so every message arrives
// whole, none interleaved with another.
func TestStreamConnConcurrentSenders(t *testing.T) {
	const senders, each = 4, 200
	a, b := tcpPair(t)
	tx, rx := StreamConn(a), StreamConn(b)
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		go func(g int) {
			for i := 0; i < each; i++ {
				msg := bytes.Repeat([]byte{byte(g)}, 1+(i*37)%(2*streamReadBuffer))
				if err := tx.Send(msg); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for n := 0; n < senders*each; n++ {
		m, err := rx.Recv()
		if err != nil {
			t.Fatalf("message %d: %v", n, err)
		}
		if len(m) == 0 || !bytes.Equal(m, bytes.Repeat(m[:1], len(m))) {
			t.Fatalf("message %d interleaved: %d bytes", n, len(m))
		}
	}
	for g := 0; g < senders; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamConnSendWireBytes: the bytes one Send puts on the stream are
// exactly the length prefix followed by the message — nothing more.
func TestStreamConnSendWireBytes(t *testing.T) {
	msg := []byte("one message, one vectored write")
	want := prefixed(msg)
	for _, p := range streamPairs {
		t.Run(p.name, func(t *testing.T) {
			a, raw := p.pair(t)
			sent := make(chan error, 1)
			go func() { sent <- StreamConn(a).Send(msg) }()
			got := make([]byte, len(want))
			if _, err := io.ReadFull(raw, got); err != nil {
				t.Fatal(err)
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("wire bytes = %x, want %x", got, want)
			}
			raw.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			var ne net.Error
			if n, err := raw.Read(make([]byte, 1)); n != 0 || !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("Send wrote past the message: n=%d err=%v", n, err)
			}
		})
	}
}

// TestStreamConnOversizedPrefix: a prefix above maxStreamMessage is a
// framing error, and it sticks — the stream cannot be resynchronised.
func TestStreamConnOversizedPrefix(t *testing.T) {
	in := binary.LittleEndian.AppendUint32(nil, maxStreamMessage+1)
	in = append(in, prefixed([]byte("after"))...)
	c := streamOf(in)
	for i := 0; i < 2; i++ {
		if _, err := c.Recv(); !errors.Is(err, ErrFrame) {
			t.Fatalf("Recv %d = %v, want ErrFrame", i, err)
		}
	}
}

// TestStreamConnTornStream: a stream that ends anywhere inside a
// message — mid-prefix or mid-body, with the body inside the read
// buffer or beyond it — yields an error, never a short message. Only a
// stream that ends on a message boundary reports a clean io.EOF.
func TestStreamConnTornStream(t *testing.T) {
	for _, size := range []int{10, streamReadBuffer + 100, streamEagerAlloc*2 + 5} {
		first := prefixed(bytes.Repeat([]byte{0x5A}, 7))
		wire := append(append([]byte(nil), first...), prefixed(bytes.Repeat([]byte{0xC3}, size))...)
		cuts := []int{len(first), len(first) + 1, len(first) + 3, len(first) + 4,
			len(first) + 5, len(wire) - 1}
		for k := len(first) + 4; k < len(wire); k += 4093 {
			cuts = append(cuts, k)
		}
		for _, cut := range cuts {
			c := streamOf(wire[:cut])
			if got, err := c.Recv(); err != nil || len(got) != 7 {
				t.Fatalf("size %d cut %d: first message = %d bytes, %v", size, cut, len(got), err)
			}
			got, err := c.Recv()
			switch {
			case cut == len(first):
				if err != io.EOF {
					t.Fatalf("size %d: clean end gave %v, want io.EOF", size, err)
				}
			case err == nil:
				t.Fatalf("size %d cut %d: torn stream returned a %d-byte message", size, cut, len(got))
			case !errors.Is(err, io.ErrUnexpectedEOF):
				t.Fatalf("size %d cut %d: err = %v, want io.ErrUnexpectedEOF", size, cut, err)
			}
		}
	}
	// The same over a real connection: the peer hangs up mid-body.
	a, b := tcpPair(t)
	if _, err := a.Write(prefixed(make([]byte, 100))[:50]); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if got, err := StreamConn(b).Recv(); err == nil {
		t.Fatalf("torn TCP stream returned a %d-byte message", len(got))
	}
}

// TestStreamConnHostileLengthBoundsAlloc: a peer that claims a 1 GiB
// message, sends 10 bytes and hangs up costs the receiver about what
// it sent, not what it claimed.
func TestStreamConnHostileLengthBoundsAlloc(t *testing.T) {
	a, b := tcpPair(t)
	hostile := binary.LittleEndian.AppendUint32(nil, 1<<30)
	hostile = append(hostile, make([]byte, 10)...)
	if _, err := a.Write(hostile); err != nil {
		t.Fatal(err)
	}
	a.Close()
	c := StreamConn(b)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Recv of a torn 1 GiB claim succeeded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Recv allocated %d bytes for a 10-byte body", grew)
	}
}

// FuzzStreamConnRecv: on any input Recv never panics; the messages it
// returns, each re-prefixed with its length, concatenate to a prefix of
// the input; and once a call fails, every later call fails too.
func FuzzStreamConnRecv(f *testing.F) {
	f.Add([]byte{})
	f.Add(prefixed(nil))
	f.Add(append(prefixed([]byte("ab")), prefixed([]byte("cde"))...))
	f.Add(prefixed(make([]byte, streamReadBuffer+1)))
	f.Add([]byte{0x01, 0x00, 0x00})
	f.Add(binary.LittleEndian.AppendUint32(nil, maxStreamMessage+1))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 1<<30), 1, 2, 3))
	for _, fr := range sampleFrames() {
		f.Add(prefixed(fr.Encode()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := streamOf(data)
		var out []byte
		for {
			msg, err := c.Recv()
			if err != nil {
				break
			}
			out = append(out, prefixed(msg)...)
			if !bytes.HasPrefix(data, out) {
				t.Fatalf("messages do not re-frame to a prefix of the input")
			}
		}
		for i := 0; i < 2; i++ {
			if msg, err := c.Recv(); err == nil {
				t.Fatalf("Recv after an error returned a %d-byte message", len(msg))
			}
		}
	})
}

// BenchmarkStreamConnPingPong: one 64-byte message each way over a TCP
// loopback pair; ns/op is the round-trip time of the transport alone.
func BenchmarkStreamConnPingPong(b *testing.B) {
	a, s := tcpPair(b)
	client, server := StreamConn(a), StreamConn(s)
	go func() {
		for {
			m, err := server.Recv()
			if err != nil {
				return
			}
			if server.Send(m) != nil {
				return
			}
		}
	}()
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}
