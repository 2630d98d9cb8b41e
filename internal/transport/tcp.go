package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// TCP is a transport over real sockets for multi-process deployments.
// Frames are length-prefixed: [uvarint total][uvarint fromLen][from][payload].
// Outbound connections are dialed lazily and redialed on the next Send after
// a failure; a failed write drops the message, preserving the unreliable
// best-effort semantics of Conn.
type TCP struct {
	id    NodeID
	peers map[NodeID]string

	handler Handler
	ln      net.Listener

	mu      sync.Mutex
	conns   map[NodeID]*tcpPeer
	inbound map[net.Conn]struct{}

	quit   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once

	dropped atomic.Uint64
	links   linkTable
}

var _ Conn = (*TCP)(nil)

type tcpPeer struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
}

// NewTCP starts a TCP endpoint listening on listenAddr. peers maps every
// remote node ID to its dialable address. The handler is invoked serially
// per inbound connection.
func NewTCP(id NodeID, listenAddr string, peers map[NodeID]string, h Handler) (*TCP, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	book := make(map[NodeID]string, len(peers))
	for k, v := range peers {
		book[k] = v
	}
	t := &TCP{
		id:      id,
		peers:   book,
		handler: h,
		ln:      ln,
		conns:   make(map[NodeID]*tcpPeer),
		inbound: make(map[net.Conn]struct{}),
		quit:    make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener address (useful with ":0" listeners).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// helloMagic opens a transport-level handshake frame: the first frame a
// dialer writes on a new connection advertises its own listener address,
// so the receiver learns a dial-back path to peers its address book
// never contained — a joiner admitted after this endpoint started would
// otherwise be able to reach everyone while nobody could answer it. The
// leading zero byte cannot open a valid object envelope, so a receiver
// without the intercept drops the frame as malformed and the handshake
// degrades to the old behaviour.
var helloMagic = []byte("\x00crdtsmr-hello\x00")

// learnPeer records the dial-back address an inbound connection's hello
// frame advertised. A listener bound to an unspecified host (":port",
// "0.0.0.0", "::") advertises an undialable address; the host the
// connection actually came from replaces it.
func (t *TCP) learnPeer(from NodeID, addr string, conn net.Conn) {
	if from == "" || from == t.id || addr == "" {
		return
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return
	}
	ip := net.ParseIP(host)
	if host == "" || (ip != nil && ip.IsUnspecified()) {
		rhost, _, err := net.SplitHostPort(conn.RemoteAddr().String())
		if err != nil {
			return
		}
		addr = net.JoinHostPort(rhost, port)
	}
	t.AddPeer(from, addr)
}

// AddPeer registers (or re-addresses) a dialable peer at runtime, so a
// node can reach a member that joined after this endpoint was
// constructed. An existing connection to the peer is kept; the new
// address applies from the next (re)dial.
func (t *TCP) AddPeer(to NodeID, addr string) {
	t.mu.Lock()
	t.peers[to] = addr
	t.mu.Unlock()
}

// ID implements Conn.
func (t *TCP) ID() NodeID { return t.id }

// Send implements Conn. Loopback sends are dispatched inline on a separate
// goroutine to preserve non-blocking semantics.
func (t *TCP) Send(to NodeID, payload []byte) {
	t.links.sent(t.id, to, len(payload))
	if to == t.id {
		msg := make([]byte, len(payload))
		copy(msg, payload)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			select {
			case <-t.quit:
			default:
				t.links.delivered(t.id, t.id, len(msg))
				t.handler(t.id, msg)
			}
		}()
		return
	}
	p, err := t.peer(to)
	if err != nil {
		t.dropped.Add(1)
		return
	}
	if err := p.write(t.id, payload); err != nil {
		t.dropConn(to, p)
		t.dropped.Add(1)
	}
}

// Stats returns the endpoint's counters. Links covers the links this
// endpoint terminates: outbound (From == ID) and inbound (To == ID).
func (t *TCP) Stats() Stats { return t.links.stats(t.dropped.Load()) }

// Close implements Conn: it stops the listener, closes every connection,
// and waits for reader goroutines to drain.
func (t *TCP) Close() error {
	t.closed.Do(func() {
		close(t.quit)
		_ = t.ln.Close()
		t.mu.Lock()
		for _, p := range t.conns {
			p.mu.Lock()
			if p.conn != nil {
				_ = p.conn.Close()
			}
			p.mu.Unlock()
		}
		t.conns = make(map[NodeID]*tcpPeer)
		// Accepted connections must be closed too, or their reader
		// goroutines stay blocked and Close deadlocks in wg.Wait.
		for conn := range t.inbound {
			_ = conn.Close()
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
	return nil
}

func (t *TCP) peer(to NodeID) (*tcpPeer, error) {
	t.mu.Lock()
	if p, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return p, nil
	}
	addr, ok := t.peers[to]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown peer %s", to)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", to, err)
	}
	p := &tcpPeer{conn: conn, bw: bufio.NewWriter(conn)}
	// Advertise this node's listener before any payload: the remote may
	// have started without this node in its address book, and replies it
	// sends are dropped until it learns where to dial.
	hello := append(append(make([]byte, 0, len(helloMagic)+len(t.Addr())), helloMagic...), t.Addr()...)
	if err := p.write(t.id, hello); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: hello %s: %w", to, err)
	}
	t.mu.Lock()
	if existing, ok := t.conns[to]; ok {
		t.mu.Unlock()
		_ = conn.Close()
		return existing, nil
	}
	t.conns[to] = p
	t.mu.Unlock()
	return p, nil
}

func (t *TCP) dropConn(to NodeID, p *tcpPeer) {
	p.mu.Lock()
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
	}
	p.mu.Unlock()
	t.mu.Lock()
	if t.conns[to] == p {
		delete(t.conns, to)
	}
	t.mu.Unlock()
}

func (p *tcpPeer) write(from NodeID, payload []byte) error {
	frame := make([]byte, 0, len(payload)+len(from)+12)
	frame = binary.AppendUvarint(frame, uint64(len(from)))
	frame = append(frame, from...)
	frame = append(frame, payload...)
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(frame)))

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		return io.ErrClosedPipe
	}
	if _, err := p.bw.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := p.bw.Write(frame); err != nil {
		return err
	}
	return p.bw.Flush()
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.quit:
				return
			default:
				continue
			}
		}
		t.mu.Lock()
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// maxFrameSize bounds a single frame to protect against corrupt length
// prefixes; CRDT states in this repository are far smaller.
const maxFrameSize = 64 << 20

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	for {
		select {
		case <-t.quit:
			return
		default:
		}
		total, err := binary.ReadUvarint(br)
		if err != nil || total > maxFrameSize {
			return
		}
		frame := make([]byte, total)
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		fromLen, n := binary.Uvarint(frame)
		if n <= 0 || uint64(len(frame)-n) < fromLen {
			return
		}
		from := NodeID(frame[n : n+int(fromLen)])
		payload := frame[n+int(fromLen):]
		if bytes.HasPrefix(payload, helloMagic) {
			t.learnPeer(from, string(payload[len(helloMagic):]), conn)
			continue
		}
		t.links.delivered(from, t.id, len(payload))
		t.handler(from, payload)
	}
}
