package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// maxFrame bounds a single framed message. Data-plane payloads in this
// reproduction are partition-sized (megabytes at most); anything larger
// indicates a corrupted stream.
const maxFrame = 1 << 28 // 256 MiB

// TCP is a Transport over real sockets using 4-byte big-endian length
// framing. It serves the standalone daemons (cmd/nimbus-controller,
// cmd/nimbus-worker) and the TCP integration tests.
type TCP struct{}

// Dial implements Transport.
func (TCP) Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(nc), nil
}

// Listen implements Transport.
func (TCP) Listen(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{nl: nl}, nil
}

type tcpListener struct {
	nl net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return newTCPConn(nc), nil
}

func (l *tcpListener) Close() error { return l.nl.Close() }
func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

// tcpConn frames messages over a net.Conn. Sends are serialized by a mutex
// and flushed immediately: control-plane messages are small and latency
// sensitive, so batching is left to callers. Two callers batch: the
// controller's per-worker send coalescer (one frame per worker per event)
// and the worker's peer writer (small data-plane sends that queued behind
// a write leave as one frame).
//
// tcpConn deliberately does not implement OwnedSender: Send copies into the
// bufio writer and returns without retaining b, so a pooled caller buffer
// is already reusable the moment Send returns — taking ownership would only
// move the recycle from the sender (which has the pool warm) to nobody.
type tcpConn struct {
	nc net.Conn

	sendMu sync.Mutex
	bw     *bufio.Writer

	recvMu sync.Mutex
	br     *bufio.Reader
	hdr    [4]byte
}

func newTCPConn(nc net.Conn) *tcpConn {
	if tc, ok := nc.(*net.TCPConn); ok {
		// Control messages are small; Nagle would add tens of ms.
		_ = tc.SetNoDelay(true)
	}
	return &tcpConn{
		nc: nc,
		bw: bufio.NewWriterSize(nc, 64<<10),
		br: bufio.NewReaderSize(nc, 64<<10),
	}
}

func (c *tcpConn) Send(b []byte) error {
	if len(b) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(b))
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return c.sendErr(err)
	}
	if _, err := c.bw.Write(b); err != nil {
		return c.sendErr(err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.sendErr(err)
	}
	return nil
}

func (c *tcpConn) sendErr(err error) error {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
		return ErrClosed
	}
	return err
}

func (c *tcpConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return nil, c.recvErr(err)
	}
	n := binary.BigEndian.Uint32(c.hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, c.recvErr(err)
	}
	return buf, nil
}

func (c *tcpConn) recvErr(err error) error {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrClosed
	}
	return err
}

func (c *tcpConn) Close() error { return c.nc.Close() }
