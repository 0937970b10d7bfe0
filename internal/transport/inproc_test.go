package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"anytime/internal/dv"
	"anytime/internal/graph"
)

// runGroup drives one collective body per rank concurrently and returns
// the per-rank results, failing the test on any error.
func runGroup[T any](t testing.TB, ts []Transport, body func(tr Transport) (T, error)) []T {
	t.Helper()
	results := make([]T, len(ts))
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for i, tr := range ts {
		wg.Add(1)
		go func(i int, tr Transport) {
			defer wg.Done()
			results[i], errs[i] = body(tr)
		}(i, tr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return results
}

func asTransports(group []*Inproc) []Transport {
	ts := make([]Transport, len(group))
	for i, tr := range group {
		ts[i] = tr
	}
	return ts
}

// The Exchange contract: inboxes are ordered by (sender rank, send order),
// with self-addressed messages in the sender's own rank slot.
func TestInprocExchangeOrdering(t *testing.T) {
	const n = 3
	ts := asTransports(NewInprocGroup(n))
	inboxes := runGroup(t, ts, func(tr Transport) ([]Message, error) {
		r := tr.Rank()
		var out []Message
		for q := 0; q < n; q++ { // includes a self message
			for k := 0; k < 2; k++ {
				out = append(out, Message{To: q, Tag: TagControl, Bytes: 3, Payload: []byte{byte(r), byte(q), byte(k)}})
			}
		}
		return tr.Exchange(out)
	})
	for q, in := range inboxes {
		if len(in) != 2*n {
			t.Fatalf("rank %d got %d messages, want %d", q, len(in), 2*n)
		}
		for i, msg := range in {
			wantFrom, wantK := i/2, i%2
			b := msg.Payload.([]byte)
			if msg.From != wantFrom || int(b[0]) != wantFrom || int(b[1]) != q || int(b[2]) != wantK {
				t.Fatalf("rank %d slot %d: from=%d payload=%v (want from=%d k=%d)", q, i, msg.From, b, wantFrom, wantK)
			}
		}
	}
}

func TestInprocBroadcastAndBarrier(t *testing.T) {
	ts := asTransports(NewInprocGroup(4))
	got := runGroup(t, ts, func(tr Transport) (*Message, error) {
		msg, err := tr.Broadcast(2, Message{Tag: TagControl, Bytes: 5, Payload: []byte("hello")})
		if err != nil {
			return nil, err
		}
		return msg, tr.Barrier()
	})
	for r, msg := range got {
		if r == 2 {
			if msg != nil {
				t.Fatalf("root received its own broadcast: %+v", msg)
			}
			continue
		}
		if msg == nil || msg.From != 2 || string(msg.Payload.([]byte)) != "hello" {
			t.Fatalf("rank %d: broadcast copy %+v", r, msg)
		}
	}
	st := ts[0].Stats()
	if st.Broadcasts != 1 || st.Barriers != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// An invalid destination errors on the offending rank without wedging the
// group (the collective still completes everywhere else).
func TestInprocInvalidDestination(t *testing.T) {
	ts := asTransports(NewInprocGroup(2))
	errs := runGroup(t, ts, func(tr Transport) (error, error) {
		var out []Message
		if tr.Rank() == 1 {
			out = []Message{{To: 5, Tag: TagControl}}
		}
		_, err := tr.Exchange(out)
		return err, nil
	})
	if errs[0] != nil {
		t.Fatalf("rank 0 errored: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("rank 1's invalid destination not rejected")
	}
}

// scripted fault hook for the Lossy wrapper (the plane consults it for
// boundary-DV messages only; fates are consumed in order).
type scriptHook struct {
	mu     sync.Mutex
	fates  []Fate
	next   int
	budget int
	down   map[int]bool
}

func (h *scriptHook) Fate(xid int64, from, to, k, attempt int) Fate {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.next >= len(h.fates) {
		return FateDeliver
	}
	f := h.fates[h.next]
	h.next++
	return f
}

func (h *scriptHook) Down(p int) bool { return h.down[p] }

func (h *scriptHook) ResendBudget() int {
	if h.budget <= 0 {
		return 8
	}
	return h.budget
}

func boundaryMsg(to int) Message {
	ds := []*dv.Delta{{Owner: 1, Lo: 0, D: []graph.Dist{3, graph.InfDist}}}
	return Message{To: to, Tag: TagBoundaryDV, Bytes: EncodedDeltaBytes(ds), Payload: ds}
}

// The fault plane above the transport: drops retry, delays defer to the
// next exchange (counting as in flight), budget exhaustion surfaces
// through TakeFailed — one recovery path with the backend's own failures.
func TestLossyFaultPlane(t *testing.T) {
	group := NewInprocGroup(2)
	hook := &scriptHook{fates: []Fate{FateDrop, FateDeliver, FateDelay, FateDrop, FateCorrupt}, budget: 2}
	ts := []Transport{WithFaults(group[0], hook), group[1]}

	// Step 1: drop + redeliver the first message; delay the second.
	in := runGroup(t, ts, func(tr Transport) ([]Message, error) {
		if tr.Rank() == 0 {
			return tr.Exchange([]Message{boundaryMsg(1), boundaryMsg(1)})
		}
		return tr.Exchange(nil)
	})
	if len(in[1]) != 1 {
		t.Fatalf("rank 1 got %d messages, want 1 (one delivered, one delayed)", len(in[1]))
	}
	if fl := ts[0].InFlight(); fl != 1 {
		t.Fatalf("InFlight = %d, want 1", fl)
	}
	// Step 2: the delayed message releases; the fresh message exhausts its
	// budget (drop, corrupt) and is abandoned.
	in = runGroup(t, ts, func(tr Transport) ([]Message, error) {
		if tr.Rank() == 0 {
			return tr.Exchange([]Message{boundaryMsg(1)})
		}
		return tr.Exchange(nil)
	})
	if len(in[1]) != 1 {
		t.Fatalf("rank 1 got %d messages, want 1 (the released delay)", len(in[1]))
	}
	if fl := ts[0].InFlight(); fl != 0 {
		t.Fatalf("InFlight = %d after release", fl)
	}
	failed := ts[0].TakeFailed()
	if len(failed) != 1 || failed[0].To != 1 || failed[0].Tag != TagBoundaryDV {
		t.Fatalf("TakeFailed = %+v", failed)
	}
	lossy := ts[0].(*Lossy)
	fs := lossy.FaultStats()
	if fs.Dropped != 2 || fs.Delayed != 1 || fs.Corrupted != 1 || fs.Resends != 2 {
		t.Fatalf("fault stats = %+v", fs)
	}
}

// FaultStats().Failed is cumulative like every other counter: it counts
// each abandoned message once — including a delayed one abandoned at Close
// — and draining the list with TakeFailed does not reset it.
func TestLossyFailedIsCumulative(t *testing.T) {
	group := NewInprocGroup(2)
	hook := &scriptHook{fates: []Fate{FateDrop, FateDelay}, budget: 1}
	ts := []Transport{WithFaults(group[0], hook), group[1]}
	runGroup(t, ts, func(tr Transport) ([]Message, error) {
		if tr.Rank() == 0 {
			return tr.Exchange([]Message{boundaryMsg(1), boundaryMsg(1)})
		}
		return tr.Exchange(nil)
	})
	lossy := ts[0].(*Lossy)
	if failed := lossy.TakeFailed(); len(failed) != 1 {
		t.Fatalf("TakeFailed = %+v, want the dropped message", failed)
	}
	if got := lossy.FaultStats().Failed; got != 1 {
		t.Fatalf("Failed = %d after TakeFailed, want 1", got)
	}
	lossy.Close()
	if got := lossy.FaultStats().Failed; got != 2 {
		t.Fatalf("Failed = %d after Close abandoned the delayed message, want 2", got)
	}
}

// A metrics scrape reads the plane while the rank exchanges: the fault
// counters, the in-flight count and the abandoned list are synchronized
// (run under -race by make transport-check).
func TestLossyReadsDuringExchange(t *testing.T) {
	group := NewInprocGroup(2)
	hook := &scriptHook{fates: []Fate{FateDelay, FateDrop, FateDelay, FateDuplicate, FateDrop}, budget: 1}
	ts := []Transport{WithFaults(group[0], hook), group[1]}
	lossy := ts[0].(*Lossy)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = lossy.FaultStats(), lossy.InFlight()
			}
		}
	}()
	for step := 0; step < 5; step++ {
		runGroup(t, ts, func(tr Transport) ([]Message, error) {
			if tr.Rank() == 0 {
				return tr.Exchange([]Message{boundaryMsg(1)})
			}
			return tr.Exchange(nil)
		})
	}
	close(stop)
	<-done
	if fs := lossy.FaultStats(); fs.Delayed != 2 || fs.Dropped != 2 || fs.Duplicated != 1 || fs.Failed != 2 {
		t.Fatalf("fault stats = %+v", fs)
	}
}

// WithFaults(t, nil) must be the identity.
func TestLossyNilHook(t *testing.T) {
	group := NewInprocGroup(2)
	if tr := WithFaults(group[0], nil); tr != Transport(group[0]) {
		t.Fatalf("nil hook wrapped: %T", tr)
	}
}

func TestCalibrateInproc(t *testing.T) {
	ts := asTransports(NewInprocGroup(2))
	cals := runGroup(t, ts, func(tr Transport) (Calibration, error) {
		return Calibrate(tr, 8)
	})
	if cals[0] != cals[1] {
		t.Fatalf("ranks disagree: %v vs %v", cals[0], cals[1])
	}
	c := cals[0]
	if c.RTTSmall <= 0 || c.RTTLarge <= 0 || c.RTTBurst <= 0 {
		t.Fatalf("non-positive round trips: %v", c)
	}
	if c.O < 0 || c.G < 0 || c.L < 0 {
		t.Fatalf("negative parameters: %v", c)
	}
	m := c.Model(4)
	if m.P != 4 || m.L != c.L || m.O != c.O || m.G != c.G {
		t.Fatalf("model = %+v from %v", m, c)
	}
	if c.String() == "" {
		t.Fatal("empty report row")
	}
}

// A median broadcast shorter than 8 bytes fails the receiving rank with
// an error naming rank 0, instead of panicking it.
func TestPingPongShortMedian(t *testing.T) {
	group := NewInprocGroup(2)
	sent := make(chan error, 1)
	go func() {
		// Rank 0's side of one round, then a 3-byte "median".
		_, err := group[0].Exchange([]Message{{To: 1, Tag: TagControl, Bytes: 1, Payload: []byte{0}}})
		if err == nil {
			_, err = group[0].Exchange(nil)
		}
		if err == nil {
			_, err = group[0].Broadcast(0, Message{Tag: TagControl, Bytes: 3, Payload: []byte{1, 2, 3}})
		}
		sent <- err
	}()
	_, err := pingPong(group[1], 1, 1, 1)
	if !errors.Is(err, ErrPayloadKind) || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("got %v, want ErrPayloadKind naming rank 0", err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// Inproc payloads travel by reference: the exact pointer arrives.
func TestInprocPayloadByReference(t *testing.T) {
	ts := asTransports(NewInprocGroup(2))
	ds := []*dv.Delta{{Owner: 4, Lo: 2, D: []graph.Dist{9}}}
	in := runGroup(t, ts, func(tr Transport) ([]Message, error) {
		if tr.Rank() == 0 {
			return tr.Exchange([]Message{{To: 1, Tag: TagBoundaryDV, Bytes: 16, Payload: ds}})
		}
		return tr.Exchange(nil)
	})
	if got := in[1][0].Payload.([]*dv.Delta); got[0] != ds[0] {
		t.Fatal("inproc payload was copied")
	}
}

func TestInprocClosedEndpointErrors(t *testing.T) {
	group := NewInprocGroup(1)
	tr := group[0]
	if _, err := tr.Exchange([]Message{{To: 0, Tag: TagControl}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Exchange(nil); err == nil {
		t.Fatal("exchange on closed endpoint succeeded")
	}
	if err := tr.Barrier(); err == nil {
		t.Fatal("barrier on closed endpoint succeeded")
	}
	_ = fmt.Sprintf("%v", tr.Stats()) // Stats stays safe after Close
}
