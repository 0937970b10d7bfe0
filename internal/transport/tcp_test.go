package transport

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"anytime/internal/change"
	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/kernel"
)

// freePorts reserves n distinct localhost ports by listening on :0 and
// closing; the small window before reuse is acceptable in tests.
func freePorts(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// newTCPMesh brings up an n-rank mesh inside this process (one endpoint
// per goroutine, real sockets on localhost).
func newTCPMesh(t testing.TB, n int) []Transport {
	t.Helper()
	addrs := freePorts(t, n)
	peers := make([]Peer, n)
	for i, a := range addrs {
		peers[i] = Peer{Rank: i, Addr: a}
	}
	ts := make([]Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range peers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := NewTCP(peers, i, TCPOptions{MeshTimeout: 10 * time.Second, ExchangeTimeout: 10 * time.Second})
			ts[i], errs[i] = tr, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d mesh setup: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			tr.Close()
		}
	})
	return ts
}

// The TCP inbox must follow the same (sender rank, send order) contract as
// inproc, with boundary-DV payloads decoding back to equal delta lists.
func TestTCPExchangeParityWithInproc(t *testing.T) {
	const n = 3
	traffic := func(r int) []Message {
		var out []Message
		for q := 0; q < n; q++ {
			for k := 0; k < 2; k++ {
				ds := []*dv.Delta{{Owner: int32(10*r + q), Lo: int32(k), D: []graph.Dist{graph.Dist(r), graph.Dist(q), graph.InfDist}}}
				out = append(out, Message{To: q, Tag: TagBoundaryDV, Bytes: EncodedDeltaBytes(ds), Payload: ds})
			}
		}
		return out
	}
	collect := func(ts []Transport) [][]Message {
		return runGroup(t, ts, func(tr Transport) ([]Message, error) {
			return tr.Exchange(traffic(tr.Rank()))
		})
	}
	tcpIn := collect(newTCPMesh(t, n))
	inprocIn := collect(asTransports(NewInprocGroup(n)))
	for q := 0; q < n; q++ {
		if len(tcpIn[q]) != len(inprocIn[q]) {
			t.Fatalf("rank %d: tcp %d messages, inproc %d", q, len(tcpIn[q]), len(inprocIn[q]))
		}
		for i := range tcpIn[q] {
			a, b := tcpIn[q][i], inprocIn[q][i]
			if a.From != b.From || a.Tag != b.Tag {
				t.Fatalf("rank %d slot %d: tcp (from %d tag %d) vs inproc (from %d tag %d)",
					q, i, a.From, a.Tag, b.From, b.Tag)
			}
			da, db := a.Payload.([]*dv.Delta), b.Payload.([]*dv.Delta)
			if len(da) != len(db) {
				t.Fatalf("rank %d slot %d: %d vs %d deltas", q, i, len(da), len(db))
			}
			for j := range da {
				if da[j].Owner != db[j].Owner || da[j].Lo != db[j].Lo || len(da[j].D) != len(db[j].D) {
					t.Fatalf("rank %d slot %d delta %d: %+v vs %+v", q, i, j, da[j], db[j])
				}
				for c := range da[j].D {
					if da[j].D[c] != db[j].D[c] {
						t.Fatalf("rank %d slot %d delta %d col %d: %d vs %d", q, i, j, c, da[j].D[c], db[j].D[c])
					}
				}
			}
		}
	}
}

func TestTCPBroadcastAndStats(t *testing.T) {
	ts := newTCPMesh(t, 2)
	got := runGroup(t, ts, func(tr Transport) (*Message, error) {
		if err := tr.Barrier(); err != nil {
			return nil, err
		}
		return tr.Broadcast(0, Message{Tag: TagControl, Bytes: 4, Payload: []byte("ping")})
	})
	if got[0] != nil {
		t.Fatalf("root got %+v", got[0])
	}
	if got[1] == nil || string(got[1].Payload.([]byte)) != "ping" {
		t.Fatalf("rank 1 got %+v", got[1])
	}
	st0 := ts[0].Stats()
	if st0.FramesSent == 0 || st0.MessagesSent != 1 || st0.Broadcasts != 1 || st0.Barriers != 1 {
		t.Fatalf("rank 0 stats = %+v", st0)
	}
	st1 := ts[1].Stats()
	if st1.MessagesRecv != 1 || st1.BytesRecv != 4 || st1.CRCErrors != 0 {
		t.Fatalf("rank 1 stats = %+v", st1)
	}
}

// Killing the connection under the mesh must repair transparently: the
// dialer side redials with backoff and the next exchange completes.
func TestTCPReconnectAfterLinkFailure(t *testing.T) {
	ts := newTCPMesh(t, 2)
	runGroup(t, ts, func(tr Transport) (int, error) {
		_, err := tr.Exchange([]Message{{To: 1 - tr.Rank(), Tag: TagControl, Bytes: 1, Payload: []byte{1}}})
		return 0, err
	})
	// Sever the link from the acceptor side (rank 0 accepted rank 1's
	// dial); rank 1's reader redials.
	l := ts[0].(*TCP).links[1]
	l.mu.Lock()
	l.conn.Close()
	l.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ts[0].Stats().Reconnects+ts[1].Stats().Reconnects > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no reconnect observed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	in := runGroup(t, ts, func(tr Transport) ([]Message, error) {
		return tr.Exchange([]Message{{To: 1 - tr.Rank(), Tag: TagControl, Bytes: 1, Payload: []byte{2}}})
	})
	for r := 0; r < 2; r++ {
		if len(in[r]) != 1 || in[r][0].Payload.([]byte)[0] != 2 {
			t.Fatalf("rank %d after reconnect: %+v", r, in[r])
		}
	}
}

// failingWriteConn is a connection whose writes fail while its reads
// still work: a link broken under a sending rank, not under its reader.
type failingWriteConn struct{ net.Conn }

func (failingWriteConn) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// A write that fails under a sending rank only closes the connection: the
// link's reader owns the repair, so each side counts exactly one
// reconnect, the sender writes again on the repaired link, and the next
// exchange delivers on both ranks. Run with the failing sender on the
// dialer side and on the acceptor side.
func TestTCPWriteFailureRepairedByReader(t *testing.T) {
	for sender := 0; sender < 2; sender++ {
		ts, _ := newMeshWith(t, 2, TCPOptions{MeshTimeout: 10 * time.Second, ExchangeTimeout: 10 * time.Second})
		ts[sender].hbPaused.Store(true) // keep the first failing write in Exchange
		l := ts[sender].links[1-sender]
		l.mu.Lock()
		l.conn = failingWriteConn{l.conn}
		l.w = bufio.NewWriter(l.conn)
		l.mu.Unlock()

		exchange := func(tr *TCP) ([]Message, error) {
			return tr.Exchange([]Message{{To: 1 - tr.Rank(), Tag: TagControl, Bytes: 1, Payload: []byte{byte(10 + tr.Rank())}}})
		}
		// The failing sender goes first, so its peer's frames all travel on
		// the repaired connection.
		var in [2][]Message
		var errs [2]error
		done := make(chan struct{})
		go func() {
			in[sender], errs[sender] = exchange(ts[sender])
			close(done)
		}()
		waitFor(t, 5*time.Second, "the reader's repair", func() bool {
			return ts[0].Stats().Reconnects == 1 && ts[1].Stats().Reconnects == 1
		})
		in[1-sender], errs[1-sender] = exchange(ts[1-sender])
		<-done
		for r := 0; r < 2; r++ {
			if errs[r] != nil {
				t.Fatalf("sender %d: rank %d exchange: %v", sender, r, errs[r])
			}
			if len(in[r]) != 1 || in[r][0].Payload.([]byte)[0] != byte(10+1-r) {
				t.Fatalf("sender %d: rank %d after repair: %+v", sender, r, in[r])
			}
			if got := ts[r].Stats().Reconnects; got != 1 {
				t.Fatalf("sender %d: rank %d counted %d reconnects, want 1", sender, r, got)
			}
		}
		if ts[sender].Stats().RetryAttempts == 0 {
			t.Fatalf("sender %d: the failed write was never retried", sender)
		}
		ts[sender].hbPaused.Store(false)
	}
}

// A corrupt frame on the wire is counted, skipped, and the frames after it
// still deliver (the length prefix keeps the stream in sync).
func TestTCPReadLoopSkipsCorruptFrame(t *testing.T) {
	tt := &TCP{rank: 0, peers: []Peer{{0, ""}, {1, ""}}, opts: TCPOptions{}.withDefaults(), links: make([]*tcpLink, 2)}
	l := &tcpLink{t: tt, peer: 1}
	l.rcond = sync.NewCond(&l.rmu)
	tt.links[1] = l
	ours, theirs := net.Pipe()
	tt.wg.Add(1)
	go l.readLoop(ours, 0)

	corrupt := appendFrame(nil, frame{Tag: TagControl, From: 1, To: 0, Body: []byte("bad")})
	corrupt[len(corrupt)-1] ^= 0xFF
	good := appendFrame(nil, frame{Tag: TagControl, From: 1, To: 0, Seq: 1, Body: []byte("good")})
	marker := appendFrame(nil, frame{Tag: tagStepEnd, From: 1, To: 0, Seq: 1})
	go func() {
		theirs.Write(corrupt)
		theirs.Write(good)
		theirs.Write(marker)
	}()
	msgs, err := l.takeStep(time.Now().Add(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || string(msgs[0].Payload.([]byte)) != "good" {
		t.Fatalf("messages = %+v", msgs)
	}
	if got := tt.ctr.crcErrors.Load(); got != 1 {
		t.Fatalf("crcErrors = %d, want 1", got)
	}
	tt.closed.Store(true)
	theirs.Close()
	ours.Close()
	tt.wg.Wait()
}

func TestTCPManifestValidation(t *testing.T) {
	if _, err := NewTCP([]Peer{{0, "x"}}, 0, TCPOptions{}); err == nil {
		t.Fatal("1-peer manifest accepted")
	}
	if _, err := NewTCP([]Peer{{0, "x"}, {1, "y"}}, 5, TCPOptions{}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := NewTCP([]Peer{{1, "x"}, {0, "y"}}, 0, TCPOptions{}); err == nil {
		t.Fatal("unsorted manifest accepted")
	}
}

func TestTCPCalibrate(t *testing.T) {
	ts := newTCPMesh(t, 2)
	cals := runGroup(t, ts, func(tr Transport) (Calibration, error) {
		return Calibrate(tr, 4)
	})
	if cals[0] != cals[1] {
		t.Fatalf("ranks disagree: %v vs %v", cals[0], cals[1])
	}
	if cals[0].RTTSmall <= 0 {
		t.Fatalf("calibration = %v", cals[0])
	}
}

// Every payload an Exchange returns owns its memory: the reader reuses one
// buffer per connection and the sender one frame buffer, so a delta list,
// a control body or an event list from one exchange must read the same
// after the next exchange has carried different contents over the link.
func TestTCPPayloadsOwnTheirMemory(t *testing.T) {
	ts := newTCPMesh(t, 2)
	traffic := func(k int) []Message {
		ds := []*dv.Delta{
			{Owner: 1, Lo: 0, D: []graph.Dist{graph.Dist(k), 2, graph.InfDist}},
			{Owner: 2, Lo: 64, D: make([]graph.Dist, 70), F: kernel.Bitset{uint64(k), 1}},
		}
		for i := range ds[1].D {
			ds[1].D[i] = graph.Dist(k + i)
		}
		evs := []change.Event{{EdgeAdds: []change.EdgeAdd{{U: 1, V: 2, Weight: graph.Weight(k)}}}}
		return []Message{
			{To: 1, Tag: TagBoundaryDV, Bytes: EncodedDeltaBytes(ds), Payload: ds},
			{To: 1, Tag: TagControl, Bytes: 64, Payload: bytes.Repeat([]byte{byte(k)}, 64)},
			{To: 1, Tag: TagControl, Payload: evs},
		}
	}
	// encoded snapshots a payload as its frame bytes.
	encoded := func(p interface{}) []byte {
		buf, err := appendMessageFrame(nil, frame{}, p)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	exchange := func(k int) []Message {
		in := runGroup(t, ts, func(tr Transport) ([]Message, error) {
			if tr.Rank() == 0 {
				return tr.Exchange(traffic(k))
			}
			return tr.Exchange(nil)
		})
		if len(in[1]) != 3 {
			t.Fatalf("exchange %d: rank 1 got %d messages, want 3", k, len(in[1]))
		}
		return in[1]
	}
	first := exchange(1)
	var want [][]byte
	for i, msg := range first {
		if got, sent := encoded(msg.Payload), encoded(traffic(1)[i].Payload); !bytes.Equal(got, sent) {
			t.Fatalf("message %d decoded unlike what was sent", i)
		}
		want = append(want, encoded(msg.Payload))
	}
	exchange(2)
	for i, msg := range first {
		if !bytes.Equal(encoded(msg.Payload), want[i]) {
			t.Fatalf("message %d of the first exchange changed when the second was read", i)
		}
	}
}
