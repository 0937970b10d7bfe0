package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Peer is one row of the static peer manifest: a rank and the TCP address
// it listens on.
type Peer struct {
	Rank int
	Addr string
}

// TCPOptions tunes the TCP backend. Zero values pick the defaults.
type TCPOptions struct {
	// MeshTimeout bounds the whole mesh setup: listening, dialing every
	// lower rank (with retries while peers are still starting), and
	// accepting every higher rank (default 30s).
	MeshTimeout time.Duration
	// ExchangeTimeout bounds the wait for the peers' step traffic in one
	// Exchange (default 60s). A peer that dies is marked down by the
	// heartbeat timeout long before; one that lives but stops stepping
	// surfaces here.
	ExchangeTimeout time.Duration
	// HeartbeatInterval is the liveness plane's keepalive period (default
	// 500ms): every active link carries a heartbeat frame this often. A
	// peer silent for 4 intervals is marked down; down is sticky, and only
	// the rejoin handshake revives the link.
	HeartbeatInterval time.Duration

	// Test-only variation, never set outside this package: a heartbeat
	// silence other than 4 intervals, and a redial budget and initial
	// backoff other than reconnectAttempts and reconnectBackoff.
	heartbeatTimeout time.Duration
	redialAttempts   int
	redialBackoff    time.Duration
}

const (
	// dialTimeout bounds one dial attempt and one handshake.
	dialTimeout = 3 * time.Second
	// writeTimeout is the per-frame write deadline.
	writeTimeout = 10 * time.Second
	// reconnectAttempts is the retry budget for redials after a link
	// failure; the acceptor side instead waits for the dialer's redial.
	reconnectAttempts = 5
	// reconnectBackoff is the initial redial backoff; retries grow
	// exponentially from it with deterministic jitter in [0.5, 1.0) of the
	// window (capped at maxBackoff), so a fleet of ranks redialing one
	// restarted peer spreads out instead of thundering in lockstep.
	reconnectBackoff = 50 * time.Millisecond
)

func (o TCPOptions) withDefaults() TCPOptions {
	if o.MeshTimeout <= 0 {
		o.MeshTimeout = 30 * time.Second
	}
	if o.ExchangeTimeout <= 0 {
		o.ExchangeTimeout = 60 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.heartbeatTimeout <= 0 {
		o.heartbeatTimeout = 4 * o.HeartbeatInterval
	}
	if o.redialAttempts <= 0 {
		o.redialAttempts = reconnectAttempts
	}
	if o.redialBackoff <= 0 {
		o.redialBackoff = reconnectBackoff
	}
	return o
}

// maxBackoff caps one jittered redial pause.
const maxBackoff = time.Second

// Link lifecycle states. Active links carry step traffic; a down link is
// skipped by every collective (its peer contributes nothing); a pending
// link has completed the rejoin handshake and waits for the runner's
// consensus to activate it at an agreed exchange boundary.
const (
	linkActive int32 = iota
	linkDown
	linkPending
)

// TCP is the real-network Transport backend: a full mesh of stdlib TCP
// connections between N OS processes. Rank i dials every lower rank and
// accepts from every higher rank, so each pair shares exactly one
// connection. Exchange frames each BSP step with per-link step-end
// markers: TCP's per-link FIFO guarantees a peer's data frames for step k
// arrive before its k-th marker, so the inbox is complete when every
// peer's marker is in — no global clock needed.
//
// Every link carries periodic heartbeats, a silent or unreachable peer is
// marked down (sticky), collectives continue without it, and a restarted
// process re-enters through RejoinTCP's pending handshake.
type TCP struct {
	rank  int
	peers []Peer
	opts  TCPOptions

	ln     net.Listener
	links  []*tcpLink // by rank; links[rank] == nil
	ctr    counters
	xid    uint64
	failed []Message
	closed atomic.Bool
	wg     sync.WaitGroup

	// sendBuf holds the frame being written; only Exchange uses it, and
	// it is reused (grown, never shrunk) across exchanges.
	sendBuf []byte

	hbStop   chan struct{}
	hbPaused atomic.Bool  // test hook: stop sending heartbeats, keep receiving
	step     atomic.Int64 // this rank's RC step, gossiped in heartbeat Seq

	lmu  sync.Mutex
	down []int // peers newly marked down, for TakeDown

	goCh chan []byte // rejoiner side: the coordinator's go signal
}

// tcpLink is the connection state for one peer.
type tcpLink struct {
	t      *TCP
	peer   int
	dialer bool // this side re-establishes the link after failures

	mu   sync.Mutex // guards conn/w and the write path
	conn net.Conn
	w    *bufio.Writer
	gen  int // bumped on every (re)connect

	state     atomic.Int32 // linkActive / linkDown / linkPending (transitions under rmu)
	lastHeard atomic.Int64 // UnixNano of the last frame from this peer
	peerStep  atomic.Int64 // last RC step heard in this peer's heartbeats

	rmu   sync.Mutex
	rcond *sync.Cond
	items []tcpItem // decoded frames in arrival order
}

// tcpItem is one received frame: a data message or a step-end marker.
type tcpItem struct {
	marker bool
	xid    uint32
	msg    Message
}

func newTCPEndpoint(peers []Peer, rank int, opts TCPOptions) (*TCP, error) {
	if len(peers) < 2 {
		return nil, fmt.Errorf("transport: tcp mesh needs >= 2 peers, got %d", len(peers))
	}
	if rank < 0 || rank >= len(peers) {
		return nil, fmt.Errorf("transport: rank %d outside manifest of %d peers", rank, len(peers))
	}
	for i, p := range peers {
		if p.Rank != i {
			return nil, fmt.Errorf("transport: manifest rank %d at position %d (must be sorted, dense)", p.Rank, i)
		}
	}
	opts = opts.withDefaults()
	t := &TCP{rank: rank, peers: peers, opts: opts, links: make([]*tcpLink, len(peers))}
	for q := range peers {
		if q == rank {
			continue
		}
		l := &tcpLink{t: t, peer: q, dialer: q < rank}
		l.rcond = sync.NewCond(&l.rmu)
		t.links[q] = l
	}
	ln, err := net.Listen("tcp", peers[rank].Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d listen %s: %w", rank, peers[rank].Addr, err)
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// NewTCP joins the mesh described by the manifest as the given rank: it
// listens on peers[rank].Addr, dials every lower rank (retrying while
// those processes are still starting), accepts every higher rank, and
// returns once all Size()-1 links are up.
func NewTCP(peers []Peer, rank int, opts TCPOptions) (*TCP, error) {
	t, err := newTCPEndpoint(peers, rank, opts)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(t.opts.MeshTimeout)
	var dialErr error
	var dialWG sync.WaitGroup
	var dialMu sync.Mutex
	for q := 0; q < rank; q++ {
		dialWG.Add(1)
		go func(q int) {
			defer dialWG.Done()
			if err := t.links[q].dial(deadline, tagHandshake); err != nil {
				dialMu.Lock()
				if dialErr == nil {
					dialErr = err
				}
				dialMu.Unlock()
			}
		}(q)
	}
	dialWG.Wait()
	if dialErr != nil {
		t.Close()
		return nil, dialErr
	}
	// Wait for every higher rank to dial in.
	for q := rank + 1; q < len(peers); q++ {
		if err := t.links[q].waitConnected(deadline); err != nil {
			t.Close()
			return nil, err
		}
	}
	t.startHeartbeat()
	return t, nil
}

// RejoinTCP re-enters an existing mesh as a restarted rank: it listens on
// its manifest address again and dials *every* peer (the dial asymmetry of
// the initial mesh does not apply — the survivors' old connections to this
// rank are gone) with the rejoin handshake, which the survivors install in
// the pending state. The caller must then block in AwaitRejoinGo until the
// coordinator activates the rank at a step boundary and releases it with
// the go payload.
func RejoinTCP(peers []Peer, rank int, opts TCPOptions) (*TCP, error) {
	t, err := newTCPEndpoint(peers, rank, opts)
	if err != nil {
		return nil, err
	}
	t.goCh = make(chan []byte, 1)
	deadline := time.Now().Add(t.opts.MeshTimeout)
	var dialErr error
	var dialWG sync.WaitGroup
	var dialMu sync.Mutex
	for q := range peers {
		if q == rank {
			continue
		}
		l := t.links[q]
		l.dialer = true // the rejoiner repairs every link from now on
		dialWG.Add(1)
		go func(l *tcpLink) {
			defer dialWG.Done()
			if err := l.dial(deadline, tagRejoin); err != nil {
				dialMu.Lock()
				if dialErr == nil {
					dialErr = err
				}
				dialMu.Unlock()
			}
		}(l)
	}
	dialWG.Wait()
	if dialErr != nil {
		t.Close()
		return nil, dialErr
	}
	t.startHeartbeat()
	return t, nil
}

// AwaitRejoinGo implements Transport: block until the coordinator's
// tagRejoinGo frame arrives and return its payload.
func (t *TCP) AwaitRejoinGo(timeout time.Duration) ([]byte, error) {
	if t.goCh == nil {
		return nil, fmt.Errorf("transport: endpoint was not created with RejoinTCP")
	}
	if timeout <= 0 {
		timeout = t.opts.MeshTimeout
	}
	select {
	case payload := <-t.goCh:
		return payload, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("transport: rank %d not released into the mesh within %v", t.rank, timeout)
	}
}

// Addr returns the listener's actual address (useful when the manifest
// used port 0).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Rank implements Transport.
func (t *TCP) Rank() int { return t.rank }

// Size implements Transport.
func (t *TCP) Size() int { return len(t.peers) }

// TakeDown implements Transport.
func (t *TCP) TakeDown() []int {
	t.lmu.Lock()
	down := t.down
	t.down = nil
	t.lmu.Unlock()
	return down
}

// PeerDown implements Transport: a pending peer is still down (it carries
// no step traffic until activated).
func (t *TCP) PeerDown(q int) bool {
	if q == t.rank || q < 0 || q >= len(t.links) {
		return false
	}
	return t.links[q].state.Load() != linkActive
}

// PendingRejoin implements Transport.
func (t *TCP) PendingRejoin(q int) bool {
	if q == t.rank || q < 0 || q >= len(t.links) {
		return false
	}
	return t.links[q].state.Load() == linkPending
}

// Activate implements Transport: flip a pending link to active. All live
// ranks must do this at the same exchange boundary; the link's marker
// stream then starts at the next Exchange on both sides. Idempotent.
func (t *TCP) Activate(q int) {
	if q == t.rank || q < 0 || q >= len(t.links) {
		return
	}
	l := t.links[q]
	l.rmu.Lock()
	pending := l.state.Load() == linkPending
	if pending {
		l.state.Store(linkActive)
	}
	l.rmu.Unlock()
	if pending {
		l.rcond.Broadcast()
	}
}

// HeartbeatAge implements Transport.
func (t *TCP) HeartbeatAge(q int) time.Duration {
	if q == t.rank || q < 0 || q >= len(t.links) {
		return 0
	}
	last := t.links[q].lastHeard.Load()
	if last == 0 {
		return 0
	}
	return time.Since(time.Unix(0, last))
}

// SendRejoinGo implements Transport: release an activated rejoiner into the
// step loop with the opaque go payload.
func (t *TCP) SendRejoinGo(q int, payload []byte) error {
	if q == t.rank || q < 0 || q >= len(t.links) {
		return fmt.Errorf("transport: rejoin-go to invalid rank %d", q)
	}
	buf := appendFrame(make([]byte, 0, headerLen+len(payload)+trailerLen),
		frame{Tag: tagRejoinGo, Kind: payloadRaw, From: t.rank, To: q, Body: payload})
	return t.links[q].send(buf)
}

// startHeartbeat launches the liveness loop: send a heartbeat on every
// connected link each interval, and mark links silent past the timeout
// down.
func (t *TCP) startHeartbeat() {
	t.hbStop = make(chan struct{})
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		ticker := time.NewTicker(t.opts.HeartbeatInterval)
		defer ticker.Stop()
		for {
			select {
			case <-t.hbStop:
				return
			case <-ticker.C:
			}
			for q, l := range t.links {
				if l == nil || l.state.Load() == linkDown {
					continue
				}
				if !t.hbPaused.Load() {
					l.sendHeartbeat(q)
				}
				last := l.lastHeard.Load()
				if last != 0 && time.Since(time.Unix(0, last)) > t.opts.heartbeatTimeout {
					l.markDown(fmt.Sprintf("silent for %v", t.opts.heartbeatTimeout))
				}
			}
		}
	}()
}

// sendHeartbeat writes one keepalive frame; a failed write just drops the
// connection (the reader's repair path or the peer's timeout takes over).
func (l *tcpLink) sendHeartbeat(q int) {
	// Seq carries the sender's RC step (unused otherwise on heartbeats):
	// free step-ID gossip for the observability plane.
	hb := appendFrame(nil, frame{Tag: tagHeartbeat, From: l.t.rank, To: q, Seq: uint32(l.t.step.Load())})
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return
	}
	l.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := l.w.Write(hb)
	if err == nil {
		err = l.w.Flush()
	}
	l.conn.SetWriteDeadline(time.Time{})
	if err != nil {
		l.conn.Close()
	} else {
		l.t.ctr.framesSent.Add(1)
	}
}

// markDown makes the link's peer down: sticky until a rejoin handshake.
// Queued items are stale (a dead peer's partial step) and are discarded;
// waiting collectives wake and skip the peer.
func (l *tcpLink) markDown(reason string) {
	l.rmu.Lock()
	if l.state.Load() == linkDown {
		l.rmu.Unlock()
		return
	}
	l.state.Store(linkDown)
	l.items = nil
	l.rmu.Unlock()
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn, l.w = nil, nil
	}
	l.mu.Unlock()
	l.rcond.Broadcast()
	l.t.lmu.Lock()
	l.t.down = append(l.t.down, l.peer)
	l.t.lmu.Unlock()
}

// acceptLoop installs inbound connections onto their links for the whole
// life of the endpoint — a later inbound connection from a known higher
// rank replaces the existing one (the dialer's reconnect), and a rejoin
// handshake from any rank re-installs its link in the pending state.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go t.handshakeInbound(conn)
	}
}

// readHandshake reads exactly one empty-body frame off the raw connection
// (handshake frames are fixed-size), avoiding any buffered read-ahead that
// would swallow bytes of the frames that follow.
func readHandshake(conn net.Conn) (frame, error) {
	buf := make([]byte, headerLen+trailerLen)
	if _, err := io.ReadFull(conn, buf); err != nil {
		return frame{}, err
	}
	f, _, err := readFrame(bytes.NewReader(buf), nil, maxFrameBytes)
	return f, err
}

// handshakeInbound reads the dialer's handshake, replies, and installs the
// connection on the peer's link. A plain handshake is only valid from a
// higher rank on a live link (the initial mesh and its reconnects); a
// rejoin handshake is valid from any rank and parks the link in the
// pending state until the runner activates it.
func (t *TCP) handshakeInbound(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(dialTimeout))
	f, err := readHandshake(conn)
	if err != nil || (f.Tag != tagHandshake && f.Tag != tagRejoin) || f.To != t.rank {
		conn.Close()
		return
	}
	peer := f.From
	if peer == t.rank || peer < 0 || peer >= len(t.peers) {
		conn.Close()
		return
	}
	l := t.links[peer]
	if f.Tag == tagHandshake {
		if peer <= t.rank {
			conn.Close()
			return
		}
		if l.state.Load() == linkDown {
			// Down is sticky: a flapping old connection must not silently
			// revive the link — only the rejoin protocol does.
			conn.Close()
			return
		}
	}
	reply := appendFrame(nil, frame{Tag: f.Tag, From: t.rank, To: peer, Seq: frameVersion})
	if _, err := conn.Write(reply); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if f.Tag == tagRejoin {
		l.installPending(conn)
		return
	}
	l.install(conn)
}

// installPending installs a rejoined peer's connection: the link's old
// life ends (if the death was never noticed locally, it is marked down
// now, so the runner's liveness view agrees with the rejoin), the queue is
// cleared, and the link parks in pending until Activate.
func (l *tcpLink) installPending(conn net.Conn) {
	if l.state.Load() != linkDown {
		// The peer restarted faster than our failure detector: its old
		// connection is dead even if we never noticed.
		l.markDown("peer restarted")
	}
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = conn
	l.w = bufio.NewWriterSize(conn, 64<<10)
	l.gen++
	gen := l.gen
	l.mu.Unlock()
	l.rmu.Lock()
	l.state.Store(linkPending)
	l.items = nil
	l.rmu.Unlock()
	l.lastHeard.Store(time.Now().UnixNano())
	l.t.ctr.reconnects.Add(1)
	l.rcond.Broadcast()
	l.t.wg.Add(1)
	go l.readLoop(conn, gen)
}

// dial establishes the link to a peer, retrying with jittered backoff
// until the deadline while the peer process may still be starting. hs is
// the handshake tag: tagHandshake for the initial mesh, tagRejoin when
// re-entering as a restarted rank.
func (l *tcpLink) dial(deadline time.Time, hs Tag) error {
	t := l.t
	seed := uint64(t.rank)<<32 | uint64(l.peer)
	for attempt := 0; ; attempt++ {
		if t.closed.Load() {
			return fmt.Errorf("transport: endpoint closed while dialing rank %d", l.peer)
		}
		conn, err := l.dialOnce(hs)
		if err == nil {
			l.install(conn)
			return nil
		}
		if attempt > 0 {
			t.ctr.retryAttempts.Add(1)
		}
		pause := jitterBackoff(attempt, t.opts.redialBackoff, maxBackoff, seed)
		if time.Now().Add(pause).After(deadline) {
			return fmt.Errorf("transport: rank %d could not reach rank %d at %s: %w",
				t.rank, l.peer, t.peers[l.peer].Addr, err)
		}
		time.Sleep(pause)
	}
}

// dialOnce performs one dial + handshake round trip.
func (l *tcpLink) dialOnce(hs Tag) (net.Conn, error) {
	t := l.t
	conn, err := net.DialTimeout("tcp", t.peers[l.peer].Addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(dialTimeout))
	buf := appendFrame(nil, frame{Tag: hs, From: t.rank, To: l.peer, Seq: frameVersion})
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return nil, err
	}
	f, err := readHandshake(conn)
	if err != nil || f.Tag != hs || f.From != l.peer {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("transport: bad handshake reply (tag %d from %d)", f.Tag, f.From)
		}
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return conn, nil
}

// install replaces the link's connection (counting a reconnect if one
// existed) and starts its reader. It never revives a down link: that takes
// installPending + Activate.
func (l *tcpLink) install(conn net.Conn) {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.t.ctr.reconnects.Add(1)
	}
	l.conn = conn
	l.w = bufio.NewWriterSize(conn, 64<<10)
	l.gen++
	gen := l.gen
	l.mu.Unlock()
	l.lastHeard.Store(time.Now().UnixNano())
	l.rcond.Broadcast()
	l.t.wg.Add(1)
	go l.readLoop(conn, gen)
}

// waitConnected blocks until the link has a connection or the deadline
// passes.
func (l *tcpLink) waitConnected(deadline time.Time) error {
	for {
		l.mu.Lock()
		ok := l.conn != nil
		l.mu.Unlock()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: rank %d never heard from rank %d", l.t.rank, l.peer)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readLoop decodes frames from one connection until it fails or is
// replaced. Corrupt frames are counted and skipped (the length prefix
// keeps the stream in sync); a read error marks the link for repair.
// Every frame is read into one buffer the loop reuses, so nothing queued
// may alias it: decodePayload copies out, and so does the rejoin-go path.
func (l *tcpLink) readLoop(conn net.Conn, gen int) {
	defer l.t.wg.Done()
	r := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	for {
		f, next, err := readFrame(r, buf, maxFrameBytes)
		buf = next
		if err != nil {
			if errors.Is(err, ErrCorruptFrame) {
				l.t.ctr.crcErrors.Add(1)
				continue
			}
			l.readerGone(conn, gen, err)
			return
		}
		l.t.ctr.framesRecv.Add(1)
		l.lastHeard.Store(time.Now().UnixNano())
		switch f.Tag {
		case tagHeartbeat:
			l.peerStep.Store(int64(f.Seq))
			continue
		case tagRejoinGo:
			if l.t.goCh != nil {
				select {
				case l.t.goCh <- bytes.Clone(f.Body):
				default:
				}
			}
			continue
		case tagStepEnd:
			l.push(tcpItem{marker: true, xid: f.Seq})
			continue
		}
		payload, perr := decodePayload(f.Kind, f.Body)
		if perr != nil {
			// A frame that passed CRC but fails payload decoding is a
			// protocol bug or an in-flight corruption the CRC missed;
			// reject it like a corrupt frame.
			l.t.ctr.crcErrors.Add(1)
			continue
		}
		l.t.ctr.msgsRecv.Add(1)
		l.t.ctr.bytesRecv.Add(int64(len(f.Body)))
		l.push(tcpItem{msg: Message{From: f.From, To: f.To, Tag: f.Tag, Bytes: len(f.Body), Payload: payload}})
	}
}

// readerGone handles a failed connection: the dialer side redials with
// jittered backoff under the retry budget; the acceptor side waits for the
// dialer's new connection (or the heartbeat timeout). If
// the endpoint is closing, or the budget runs out, the link goes down so
// waiting receivers move on.
func (l *tcpLink) readerGone(conn net.Conn, gen int, err error) {
	t := l.t
	l.mu.Lock()
	stale := l.gen != gen // already replaced by a newer connection
	l.mu.Unlock()
	if stale || t.closed.Load() {
		return
	}
	conn.Close()
	if l.state.Load() != linkActive {
		return // already down or pending a rejoin; nothing to repair
	}
	if !l.dialer {
		// The dialer redials; nothing to do but wait. The heartbeat
		// timeout marks the link down if the peer never returns.
		return
	}
	seed := uint64(t.rank)<<32 | uint64(l.peer) | 1<<63
	for attempt := 0; attempt < t.opts.redialAttempts; attempt++ {
		if t.closed.Load() || l.state.Load() != linkActive {
			return
		}
		t.ctr.retryAttempts.Add(1)
		time.Sleep(jitterBackoff(attempt, t.opts.redialBackoff, maxBackoff, seed))
		c, derr := l.dialOnce(tagHandshake)
		if derr == nil {
			t.ctr.reconnects.Add(1)
			l.installReconnected(c)
			return
		}
	}
	l.markDown("reconnect budget exhausted")
}

// installReconnected swaps in a redialed connection without double-counting
// the reconnect (the caller counted it).
func (l *tcpLink) installReconnected(conn net.Conn) {
	l.mu.Lock()
	l.conn = conn
	l.w = bufio.NewWriterSize(conn, 64<<10)
	l.gen++
	gen := l.gen
	l.mu.Unlock()
	l.lastHeard.Store(time.Now().UnixNano())
	l.rcond.Broadcast()
	l.t.wg.Add(1)
	go l.readLoop(conn, gen)
}

// push appends one received item and wakes the collector. Items are
// dropped while the link is not active: a down peer's leftovers are stale,
// and a pending rejoiner sends no step traffic before activation anyway.
func (l *tcpLink) push(it tcpItem) {
	l.rmu.Lock()
	if l.state.Load() == linkDown {
		l.rmu.Unlock()
		return
	}
	l.items = append(l.items, it)
	l.rmu.Unlock()
	l.rcond.Broadcast()
}

// send writes one encoded frame with the write deadline, redialing with
// jittered backoff on failure (dialer side) or waiting briefly for the
// peer's redial (acceptor side). Reports whether the frame was written.
func (l *tcpLink) send(buf []byte) error {
	t := l.t
	deadline := time.Now().Add(t.opts.ExchangeTimeout)
	seed := uint64(t.rank)<<32 | uint64(l.peer) | 1<<62
	for attempt := 0; ; attempt++ {
		if l.state.Load() == linkDown {
			return fmt.Errorf("transport: rank %d is down", l.peer)
		}
		l.mu.Lock()
		conn, w := l.conn, l.w
		if conn != nil {
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			_, err := w.Write(buf)
			if err == nil {
				err = w.Flush()
			}
			conn.SetWriteDeadline(time.Time{})
			if err == nil {
				l.mu.Unlock()
				t.ctr.framesSent.Add(1)
				return nil
			}
			// The write failed: drop the connection; the reader's repair
			// path (or our redial below) re-establishes it.
			conn.Close()
			if l.dialer {
				l.conn, l.w = nil, nil
			}
			l.mu.Unlock()
		} else {
			l.mu.Unlock()
		}
		if t.closed.Load() {
			return fmt.Errorf("transport: endpoint closed")
		}
		if attempt >= t.opts.redialAttempts || time.Now().After(deadline) {
			return fmt.Errorf("transport: rank %d cannot reach rank %d after %d attempts", t.rank, l.peer, attempt)
		}
		t.ctr.retryAttempts.Add(1)
		if l.dialer {
			if c, err := l.dialOnce(tagHandshake); err == nil {
				t.ctr.reconnects.Add(1)
				l.installReconnected(c)
				continue
			}
		}
		time.Sleep(jitterBackoff(attempt, t.opts.redialBackoff, maxBackoff, seed))
	}
}

// takeStep blocks until the link's next step-end marker arrives, then
// removes and returns the data messages queued before it (the peer's
// traffic for the current exchange). A link that goes down mid-wait
// contributes nothing: the runner handles the degraded step.
func (l *tcpLink) takeStep(deadline time.Time) ([]Message, error) {
	// A timer kicks the cond so the wait honors the deadline.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
				l.rcond.Broadcast()
			}
		}
	}()
	l.rmu.Lock()
	defer l.rmu.Unlock()
	for {
		for i, it := range l.items {
			if it.marker {
				msgs := make([]Message, 0, i)
				for _, d := range l.items[:i] {
					msgs = append(msgs, d.msg)
				}
				l.items = append(l.items[:0], l.items[i+1:]...)
				return msgs, nil
			}
		}
		if l.t.closed.Load() {
			return nil, fmt.Errorf("transport: endpoint closed")
		}
		if l.state.Load() != linkActive {
			return nil, nil // down or pending peer: no traffic this step
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: rank %d timed out waiting for rank %d's step traffic", l.t.rank, l.peer)
		}
		l.rcond.Wait()
	}
}

// Exchange implements Transport: send this rank's messages, mark the step
// end on every active link, and collect every active peer's step traffic.
// Messages to down (or pending) peers are reported through TakeFailed so
// the engine re-marks their rows, exactly like abandoned sends.
func (t *TCP) Exchange(out []Message) ([]Message, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("transport: exchange on closed endpoint")
	}
	t.xid++
	xid := uint32(t.xid)
	t.ctr.exchanges.Add(1)
	var local []Message
	seq := make([]uint32, len(t.peers))
	for i := range out {
		msg := out[i]
		msg.From = t.rank
		if err := validDest(msg, len(t.peers)); err != nil {
			return nil, err
		}
		if msg.To == t.rank {
			local = append(local, msg)
			continue
		}
		if t.links[msg.To].state.Load() != linkActive {
			t.ctr.sendFailures.Add(1)
			t.failed = append(t.failed, msg)
			continue
		}
		buf, err := appendMessageFrame(t.sendBuf[:0], frame{
			Tag: msg.Tag, From: t.rank, To: msg.To, Seq: seq[msg.To],
		}, msg.Payload)
		if err != nil {
			return nil, err
		}
		t.sendBuf = buf
		seq[msg.To]++
		if err := t.links[msg.To].send(buf); err != nil {
			// Real packet loss: surface through the same path as the fault
			// layer's abandoned messages so the engine re-marks the rows.
			t.ctr.sendFailures.Add(1)
			t.failed = append(t.failed, msg)
			continue
		}
		t.ctr.msgsSent.Add(1)
		t.ctr.bytesSent.Add(int64(len(buf) - headerLen - trailerLen))
	}
	for q, l := range t.links {
		if l == nil || l.state.Load() != linkActive {
			continue
		}
		marker := appendFrame(nil, frame{Tag: tagStepEnd, From: t.rank, To: q, Seq: xid})
		if err := l.send(marker); err != nil {
			if l.state.Load() != linkActive {
				continue // went down while sending: skip it this step
			}
			return nil, fmt.Errorf("transport: step marker to rank %d: %w", q, err)
		}
	}
	deadline := time.Now().Add(t.opts.ExchangeTimeout)
	var in []Message
	for q := 0; q < len(t.peers); q++ {
		if q == t.rank {
			in = append(in, local...)
			continue
		}
		if t.links[q].state.Load() != linkActive {
			continue
		}
		msgs, err := t.links[q].takeStep(deadline)
		if err != nil {
			return nil, err
		}
		in = append(in, msgs...)
	}
	return in, nil
}

// Broadcast implements Transport over Exchange.
func (t *TCP) Broadcast(root int, msg Message) (*Message, error) {
	if t.rank == root {
		t.ctr.broadcasts.Add(1)
	}
	return broadcastVia(t, root, msg)
}

// Barrier implements Transport as an empty Exchange.
func (t *TCP) Barrier() error {
	t.ctr.barriers.Add(1)
	_, err := t.Exchange(nil)
	return err
}

// TakeFailed implements Transport. Failed messages survive Close: a
// shutdown must not silently drop undelivered deltas the caller has not
// collected yet.
func (t *TCP) TakeFailed() []Message {
	f := t.failed
	t.failed = nil
	return f
}

// InFlight implements Transport: the TCP backend holds nothing between
// exchanges.
func (t *TCP) InFlight() int { return 0 }

// Stats implements Transport.
func (t *TCP) Stats() Stats { return t.ctr.snapshot() }

// Close implements Transport.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	if t.hbStop != nil {
		close(t.hbStop)
	}
	t.ln.Close()
	for _, l := range t.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		if l.conn != nil {
			l.conn.Close()
		}
		l.mu.Unlock()
		l.rcond.Broadcast()
	}
	t.wg.Wait()
	return nil
}
