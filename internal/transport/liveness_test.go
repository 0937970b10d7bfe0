package transport

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"anytime/internal/change"
)

func TestJitterBackoffBoundedAndDeterministic(t *testing.T) {
	base, cap_ := 10*time.Millisecond, 200*time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		d := jitterBackoff(attempt, base, cap_, 42)
		full := base << attempt
		if full > cap_ || full <= 0 {
			full = cap_
		}
		if d < full/2 || d >= full {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, full/2, full)
		}
		if d != jitterBackoff(attempt, base, cap_, 42) {
			t.Fatalf("attempt %d: backoff not deterministic for a fixed seed", attempt)
		}
	}
	if jitterBackoff(3, base, cap_, 1) == jitterBackoff(3, base, cap_, 2) {
		t.Fatal("different seeds produced identical jitter (splitmix collapse)")
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	evs := []change.Event{
		{Batch: &change.VertexBatch{
			NumVertices: 3,
			Internal:    []change.InternalEdge{{A: 0, B: 2, Weight: 3}},
			External:    []change.ExternalEdge{{New: 1, Existing: 40, Weight: 1}, {New: 2, Existing: 7, Weight: 2}},
			Pending:     []change.PendingEdge{{New: 0, EarlierBatchVertex: 5, Weight: 4}},
		}},
		{EdgeAdds: []change.EdgeAdd{{U: 3, V: 9, Weight: 2}, {U: 1, V: 2, Weight: 1}}},
	}
	body, err := EncodeEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEvents(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	b, want := got[0].Batch, evs[0].Batch
	if b == nil || b.NumVertices != want.NumVertices ||
		len(b.Internal) != 1 || b.Internal[0] != want.Internal[0] ||
		len(b.External) != 2 || b.External[1] != want.External[1] ||
		len(b.Pending) != 1 || b.Pending[0] != want.Pending[0] {
		t.Fatalf("batch mismatch: %+v vs %+v", b, want)
	}
	if len(got[1].EdgeAdds) != 2 || got[1].EdgeAdds[0] != evs[1].EdgeAdds[0] || got[1].EdgeAdds[1] != evs[1].EdgeAdds[1] {
		t.Fatalf("edge-adds mismatch: %+v", got[1].EdgeAdds)
	}
}

func TestEventCodecRejectsUnsupportedAndCorrupt(t *testing.T) {
	if _, err := EncodeEvents([]change.Event{{EdgeDels: []change.EdgeDel{{U: 1, V: 2}}}}); err == nil {
		t.Fatal("encoding a deletion event should fail (not wire-encodable)")
	}
	body, err := EncodeEvents([]change.Event{{EdgeAdds: []change.EdgeAdd{{U: 1, V: 2, Weight: 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEvents(body[:len(body)-3]); err == nil {
		t.Fatal("truncated event body should be rejected")
	}
	if _, err := DecodeEvents(append(append([]byte(nil), body...), 0xFF)); err == nil {
		t.Fatal("trailing garbage should be rejected")
	}
	huge := []byte{4, 0, 0, 0} // claims 4 events, provides none
	if _, err := DecodeEvents(huge); err == nil {
		t.Fatal("overlong count should be rejected")
	}
}

// newLiveMesh brings up an n-rank TCP mesh with a fast heartbeat and
// returns the endpoints plus the peer table (needed to rejoin a rank
// later).
func newLiveMesh(t testing.TB, n int, interval, timeout time.Duration) ([]*TCP, []Peer, TCPOptions) {
	t.Helper()
	opts := TCPOptions{
		MeshTimeout: 10 * time.Second, ExchangeTimeout: 10 * time.Second,
		HeartbeatInterval: interval, heartbeatTimeout: timeout,
		redialAttempts: 2, redialBackoff: 5 * time.Millisecond,
	}
	ts, peers := newMeshWith(t, n, opts)
	return ts, peers, opts
}

// newMeshWith brings up an n-rank TCP mesh with the given options.
func newMeshWith(t testing.TB, n int, opts TCPOptions) ([]*TCP, []Peer) {
	t.Helper()
	addrs := freePorts(t, n)
	peers := make([]Peer, n)
	for i, a := range addrs {
		peers[i] = Peer{Rank: i, Addr: a}
	}
	ts := make([]*TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range peers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts[i], errs[i] = NewTCP(peers, i, opts)
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
	return ts, peers
}

// waitFor polls a condition with a deadline — liveness transitions are
// asynchronous (heartbeat loops, accept loops).
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A silent peer must be marked down after the heartbeat timeout, the death
// must surface exactly once through TakeDown, and the down state must be
// sticky: resumed heartbeats alone (no rejoin handshake) never revive it.
func TestTCPHeartbeatTimeoutIsSticky(t *testing.T) {
	ts, _, _ := newLiveMesh(t, 2, 20*time.Millisecond, 100*time.Millisecond)
	ts[1].hbPaused.Store(true)
	waitFor(t, 5*time.Second, "rank 0 to mark rank 1 down", func() bool { return ts[0].PeerDown(1) })
	waitFor(t, time.Second, "TakeDown to report rank 1", func() bool {
		for _, q := range ts[0].TakeDown() {
			if q == 1 {
				return true
			}
		}
		return false
	})
	if age := ts[0].HeartbeatAge(1); age < 100*time.Millisecond {
		t.Fatalf("heartbeat age %v below the timeout that fired", age)
	}
	// The flap: heartbeats resume, but a down link only revives through the
	// rejoin handshake.
	ts[1].hbPaused.Store(false)
	time.Sleep(300 * time.Millisecond)
	if !ts[0].PeerDown(1) {
		t.Fatal("down state not sticky: resumed heartbeats revived the link without a rejoin")
	}
	if down := ts[0].TakeDown(); len(down) != 0 {
		t.Fatalf("flapping produced %d extra down reports: %v", len(down), down)
	}
}

// A mesh built with zero TCPOptions runs the liveness plane too: a peer
// whose heartbeats stop is marked down within the default 2 s of silence,
// and an exchange then completes without it, handing the message addressed
// to it back through TakeFailed.
func TestTCPZeroOptionsDetectDeadPeer(t *testing.T) {
	ts, _ := newMeshWith(t, 2, TCPOptions{})
	ts[1].hbPaused.Store(true)
	waitFor(t, 5*time.Second, "rank 0 to mark rank 1 down", func() bool { return ts[0].PeerDown(1) })
	if down := ts[0].TakeDown(); len(down) != 1 || down[0] != 1 {
		t.Fatalf("TakeDown = %v, want [1]", down)
	}
	if _, err := ts[0].Exchange([]Message{{To: 1, Tag: TagControl, Bytes: 1, Payload: []byte{1}}}); err != nil {
		t.Fatalf("exchange with a dead peer: %v", err)
	}
	if failed := ts[0].TakeFailed(); len(failed) != 1 || failed[0].To != 1 {
		t.Fatalf("want the message to rank 1 in TakeFailed, got %+v", failed)
	}
}

// Full TCP rejoin protocol: kill a rank, survivors detect it, a fresh
// process re-enters with RejoinTCP, every survivor sees it pending,
// activation revives the links, the go payload flows, and a three-way
// exchange works again.
func TestTCPRejoinHandshakeAndActivate(t *testing.T) {
	ts, peers, opts := newLiveMesh(t, 3, 20*time.Millisecond, 100*time.Millisecond)
	ts[2].Close()
	waitFor(t, 5*time.Second, "survivors to mark rank 2 down", func() bool {
		return ts[0].PeerDown(2) && ts[1].PeerDown(2)
	})

	// Survivors keep exchanging while rank 2 is down: sends to it fail over
	// to TakeFailed, the exchange itself succeeds. (Exchange is a
	// collective — both survivors run it concurrently.)
	var dwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		dwg.Add(1)
		go func(r int) {
			defer dwg.Done()
			if _, err := ts[r].Exchange([]Message{
				{To: 1 - r, Tag: TagControl, Bytes: 1, Payload: []byte{byte(r)}},
				{To: 2, Tag: TagControl, Bytes: 1, Payload: []byte{0xEE}},
			}); err != nil {
				t.Errorf("survivor %d degraded exchange: %v", r, err)
			}
		}(r)
	}
	dwg.Wait()
	for r := 0; r < 2; r++ {
		failed := ts[r].TakeFailed()
		if len(failed) != 1 || failed[0].To != 2 {
			t.Fatalf("survivor %d: want 1 failed message to rank 2, got %+v", r, failed)
		}
	}

	nt, err := RejoinTCP(peers, 2, opts)
	if err != nil {
		t.Fatalf("rejoin endpoint: %v", err)
	}
	defer nt.Close()
	waitFor(t, 5*time.Second, "survivors to see rank 2 pending", func() bool {
		return ts[0].PendingRejoin(2) && ts[1].PendingRejoin(2)
	})
	if !ts[0].PeerDown(2) {
		t.Fatal("pending rank must still read as down (carries no step traffic)")
	}
	ts[0].Activate(2)
	ts[1].Activate(2)
	if ts[0].PeerDown(2) || ts[1].PeerDown(2) {
		t.Fatal("activation did not revive the links")
	}
	want := []byte{0xAA, 7}
	if err := ts[0].SendRejoinGo(2, want); err != nil {
		t.Fatal(err)
	}
	got, err := nt.AwaitRejoinGo(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rejoin-go payload %x, want %x", got, want)
	}

	all := []*TCP{ts[0], ts[1], nt}
	var wg sync.WaitGroup
	ins := make([][]Message, 3)
	errs := make([]error, 3)
	for i, tr := range all {
		wg.Add(1)
		go func(i int, tr *TCP) {
			defer wg.Done()
			var out []Message
			for q := 0; q < 3; q++ {
				if q == tr.Rank() {
					continue
				}
				out = append(out, Message{To: q, Tag: TagControl, Bytes: 1, Payload: []byte{byte(tr.Rank())}})
			}
			ins[i], errs[i] = tr.Exchange(out)
		}(i, tr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("post-rejoin exchange on endpoint %d: %v", i, err)
		}
		if len(ins[i]) != 2 {
			t.Fatalf("endpoint %d received %d messages after rejoin, want 2", i, len(ins[i]))
		}
	}
}

// A rejoined rank dials every peer once, but afterwards its links keep one
// repair owner each, the higher rank, as in the initial mesh: a link broken
// after the rejoin is redialed by the survivor alone, nobody is marked
// down, each side counts one reconnect, and the next exchange delivers.
func TestTCPRejoinedLinkKeepsOneRepairOwner(t *testing.T) {
	ts, peers, opts := newLiveMesh(t, 2, 20*time.Millisecond, 300*time.Millisecond)
	ts[0].Close()
	waitFor(t, 5*time.Second, "rank 1 to mark rank 0 down", func() bool { return ts[1].PeerDown(0) })
	nt, err := RejoinTCP(peers, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	waitFor(t, 5*time.Second, "rank 1 to see rank 0 pending", func() bool { return ts[1].PendingRejoin(0) })
	ts[1].Activate(0)
	before := [2]int64{nt.Stats().Reconnects, ts[1].Stats().Reconnects}

	l := ts[1].links[0]
	l.mu.Lock()
	l.conn.Close()
	l.mu.Unlock()
	waitFor(t, 5*time.Second, "the repair", func() bool {
		return nt.Stats().Reconnects == before[0]+1 && ts[1].Stats().Reconnects == before[1]+1
	})
	// Outlast a second owner's redial budget (2 attempts from 5 ms): its
	// dials to a higher rank are refused, so it would mark the link down.
	time.Sleep(200 * time.Millisecond)
	in := runGroup(t, []Transport{nt, ts[1]}, func(tr Transport) ([]Message, error) {
		return tr.Exchange([]Message{{To: 1 - tr.Rank(), Tag: TagControl, Bytes: 1, Payload: []byte{byte(tr.Rank())}}})
	})
	for r := 0; r < 2; r++ {
		if len(in[r]) != 1 || in[r][0].From != 1-r {
			t.Fatalf("rank %d after the repair: %+v", r, in[r])
		}
	}
	if nt.PeerDown(1) || ts[1].PeerDown(0) {
		t.Fatal("a repaired link was marked down")
	}
	if got := [2]int64{nt.Stats().Reconnects, ts[1].Stats().Reconnects}; got != [2]int64{before[0] + 1, before[1] + 1} {
		t.Fatalf("reconnects %v -> %v, want one more on each side", before, got)
	}
}

// The in-process fabric mirrors the protocol: Abort surfaces through
// TakeDown and failed sends, RejoinInproc + Activate + the go payload restore a full
// three-way group.
func TestInprocAbortRejoin(t *testing.T) {
	group := NewInprocGroup(3)
	group[2].Abort()
	group[2].Abort() // idempotent

	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if _, err := group[r].Exchange([]Message{
				{To: 1 - r, Tag: TagControl, Bytes: 1, Payload: []byte{1}},
				{To: 2, Tag: TagControl, Bytes: 1, Payload: []byte{2}},
			}); err != nil {
				t.Errorf("survivor %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if !group[r].PeerDown(2) {
			t.Fatalf("survivor %d does not see rank 2 down", r)
		}
		if down := group[r].TakeDown(); len(down) != 1 || down[0] != 2 {
			t.Fatalf("survivor %d: TakeDown = %v, want [2]", r, down)
		}
		if failed := group[r].TakeFailed(); len(failed) != 1 || failed[0].To != 2 {
			t.Fatalf("survivor %d: want 1 failed message to rank 2, got %+v", r, failed)
		}
	}

	nt := RejoinInproc(group[0], 2)
	if !group[0].PendingRejoin(2) || !group[1].PendingRejoin(2) {
		t.Fatal("rejoined rank not pending on the hub")
	}
	group[0].Activate(2)
	group[1].Activate(2) // second activation is a no-op
	if group[0].PeerDown(2) {
		t.Fatal("activation did not mark rank 2 live")
	}
	if err := group[0].SendRejoinGo(2, []byte{9}); err != nil {
		t.Fatal(err)
	}
	payload, err := nt.AwaitRejoinGo(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, []byte{9}) {
		t.Fatalf("go payload %x", payload)
	}

	all := []*Inproc{group[0], group[1], nt}
	ins := make([][]Message, 3)
	for i, tr := range all {
		wg.Add(1)
		go func(i int, tr *Inproc) {
			defer wg.Done()
			var out []Message
			for q := 0; q < 3; q++ {
				if q != tr.Rank() {
					out = append(out, Message{To: q, Tag: TagControl, Bytes: 1, Payload: []byte{byte(tr.Rank())}})
				}
			}
			var err error
			ins[i], err = tr.Exchange(out)
			if err != nil {
				t.Errorf("post-rejoin exchange rank %d: %v", tr.Rank(), err)
			}
		}(i, tr)
	}
	wg.Wait()
	for i, in := range ins {
		if len(in) != 2 {
			t.Fatalf("endpoint %d received %d messages after rejoin, want 2", i, len(in))
		}
	}
}

// Failed messages must survive Close on both backends: shutdown cannot
// silently drop deltas the engine has not re-marked yet.
func TestTakeFailedPersistsAfterClose(t *testing.T) {
	ts, _, _ := newLiveMesh(t, 2, 20*time.Millisecond, 100*time.Millisecond)
	ts[1].hbPaused.Store(true)
	waitFor(t, 5*time.Second, "rank 0 to mark rank 1 down", func() bool { return ts[0].PeerDown(1) })
	if _, err := ts[0].Exchange([]Message{{To: 1, Tag: TagControl, Bytes: 1, Payload: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	ts[0].Close()
	failed := ts[0].TakeFailed()
	if len(failed) != 1 || failed[0].To != 1 {
		t.Fatalf("failed messages lost across Close: %+v", failed)
	}

	group := NewInprocGroup(2)
	group[1].Abort()
	if _, err := group[0].Exchange([]Message{{To: 1, Tag: TagControl, Bytes: 1, Payload: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	group[0].Close()
	if failed := group[0].TakeFailed(); len(failed) != 1 || failed[0].To != 1 {
		t.Fatalf("inproc failed messages lost across Close: %+v", failed)
	}
}

// Lossy's delay buffer must drain to TakeFailed on Close — an in-flight
// message at shutdown is a lost message the engine needs to know about.
func TestLossyCloseDrainsDelayed(t *testing.T) {
	group := NewInprocGroup(2)
	hook := &scriptHook{fates: []Fate{FateDelay}, budget: 1}
	a := WithFaults(group[0], hook)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := group[1].Exchange(nil); err != nil {
			t.Errorf("rank 1: %v", err)
		}
	}()
	if _, err := a.Exchange([]Message{boundaryMsg(1)}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := a.InFlight(); n != 1 {
		t.Fatalf("want 1 delayed message in flight, got %d", n)
	}
	a.Close()
	failed := a.TakeFailed()
	if len(failed) != 1 || failed[0].To != 1 || failed[0].Tag != TagBoundaryDV {
		t.Fatalf("delayed message not drained to TakeFailed on Close: %+v", failed)
	}
	if a.InFlight() != 0 {
		t.Fatalf("in-flight not cleared after Close")
	}
}
