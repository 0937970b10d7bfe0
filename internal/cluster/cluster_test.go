package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"anytime/internal/logp"
	"anytime/internal/obs"
	"anytime/internal/transport"
)

func testMachine(t *testing.T, p int, serialized bool, maxMsg int) *Machine {
	t.Helper()
	m, err := New(Config{
		Model:       logp.Model{L: 100, O: 10, G: 1, P: p, Compute: 1},
		Serialized:  serialized,
		MaxMsgBytes: maxMsg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Model: logp.Model{P: 0}}); err == nil {
		t.Fatal("P=0 should fail")
	}
	if _, err := New(Config{Model: logp.GigabitCluster(2), MaxMsgBytes: -1}); err == nil {
		t.Fatal("negative MaxMsgBytes should fail")
	}
}

func TestParallelRunsEveryProcessor(t *testing.T) {
	m := testMachine(t, 8, true, 0)
	var mask int64
	m.Parallel(func(p int) {
		atomic.AddInt64(&mask, 1<<uint(p))
	})
	if mask != (1<<8)-1 {
		t.Fatalf("mask = %b", mask)
	}
	if m.Stats().Steps != 1 {
		t.Fatalf("steps = %d", m.Stats().Steps)
	}
}

func TestChargeAndBarrier(t *testing.T) {
	m := testMachine(t, 3, true, 0)
	m.Charge(0, 100)
	m.Charge(1, 250)
	if m.VirtualTime() != 250 {
		t.Fatalf("virtual = %v", m.VirtualTime())
	}
	max := m.Barrier()
	if max != 250 {
		t.Fatalf("barrier = %v", max)
	}
	m.ChargeDuration(2, 5*time.Nanosecond)
	if m.VirtualTime() != 255 {
		t.Fatalf("after barrier+charge = %v", m.VirtualTime())
	}
}

// The personalized all-to-all must deliver every message exactly once and
// keep local messages free.
func TestExchangeDelivery(t *testing.T) {
	P := 4
	m := testMachine(t, P, true, 0)
	outbox := make([][]transport.Message, P)
	for p := 0; p < P; p++ {
		for q := 0; q < P; q++ {
			outbox[p] = append(outbox[p], transport.Message{
				To: q, Tag: transport.TagControl, Bytes: 4, Payload: p*10 + q,
			})
		}
	}
	inbox, err := m.Exchange(outbox)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < P; q++ {
		if len(inbox[q]) != P {
			t.Fatalf("processor %d received %d messages", q, len(inbox[q]))
		}
		seen := map[int]bool{}
		for _, msg := range inbox[q] {
			if msg.To != q {
				t.Fatalf("misrouted message %+v", msg)
			}
			if msg.Payload.(int) != msg.From*10+q {
				t.Fatalf("payload corrupted: %+v", msg)
			}
			if seen[msg.From] {
				t.Fatalf("duplicate from %d", msg.From)
			}
			seen[msg.From] = true
		}
	}
	st := m.Stats()
	// P*(P-1) remote messages; local ones are free
	if st.Messages != int64(P*(P-1)) {
		t.Fatalf("messages = %d", st.Messages)
	}
	if st.Bytes != int64(P*(P-1)*4) {
		t.Fatalf("bytes = %d", st.Bytes)
	}
}

func TestExchangeDeterministicOrder(t *testing.T) {
	P := 5
	run := func() []int {
		m := testMachine(t, P, true, 0)
		outbox := make([][]transport.Message, P)
		for p := 0; p < P; p++ {
			for q := 0; q < P; q++ {
				if q != p {
					outbox[p] = append(outbox[p], transport.Message{To: q, Bytes: 1, Payload: p})
				}
			}
		}
		inbox, err := m.Exchange(outbox)
		if err != nil {
			t.Fatal(err)
		}
		var order []int
		for _, msg := range inbox[0] {
			order = append(order, msg.From)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs: %v vs %v", a, b)
		}
	}
}

// Serialized accounting must charge strictly more virtual time than
// round-parallel accounting for the same traffic.
func TestSerializedCostsMore(t *testing.T) {
	traffic := func(m *Machine) time.Duration {
		P := m.P()
		outbox := make([][]transport.Message, P)
		for p := 0; p < P; p++ {
			for q := 0; q < P; q++ {
				if q != p {
					outbox[p] = append(outbox[p], transport.Message{To: q, Bytes: 1000})
				}
			}
		}
		if _, err := m.Exchange(outbox); err != nil {
			t.Fatal(err)
		}
		return m.VirtualTime()
	}
	ser := traffic(testMachine(t, 6, true, 0))
	par := traffic(testMachine(t, 6, false, 0))
	if ser <= par {
		t.Fatalf("serialized %v not above parallel %v", ser, par)
	}
}

// Bounded message size must increase the accounted chunk count but not the
// logical message count.
func TestMaxMsgBytesChunking(t *testing.T) {
	m := testMachine(t, 2, true, 100)
	outbox := make([][]transport.Message, 2)
	outbox[0] = []transport.Message{{To: 1, Bytes: 950}}
	if _, err := m.Exchange(outbox); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Messages != 1 {
		t.Fatalf("messages = %d", st.Messages)
	}
	if st.Chunks != 10 {
		t.Fatalf("chunks = %d, want 10", st.Chunks)
	}
}

func TestBroadcast(t *testing.T) {
	m := testMachine(t, 8, true, 0)
	out, err := m.Broadcast(3, transport.Message{Tag: transport.TagNewVertexRow, Bytes: 64, Payload: "row"})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 8; q++ {
		if q == 3 {
			if len(out[q]) != 0 {
				t.Fatal("root should not receive its own broadcast")
			}
			continue
		}
		if len(out[q]) != 1 || out[q][0].From != 3 || out[q][0].Payload.(string) != "row" {
			t.Fatalf("broadcast to %d wrong: %+v", q, out[q])
		}
	}
	st := m.Stats()
	if st.Broadcasts != 1 || st.Messages != 7 {
		t.Fatalf("stats = %+v", st)
	}
	// binomial tree over 8 procs: 3 rounds
	wantRound := time.Duration(1)*(10+100+10) + 64*1
	if m.VirtualTime() != 3*wantRound {
		t.Fatalf("virtual = %v, want %v", m.VirtualTime(), 3*wantRound)
	}
}

func TestExchangeErrorsOnBadDestination(t *testing.T) {
	m := testMachine(t, 2, true, 0)
	inbox, err := m.Exchange([][]transport.Message{{{To: 5}}, nil})
	if err == nil {
		t.Fatal("expected an error for an out-of-range destination")
	}
	if inbox != nil {
		t.Fatal("a failed exchange must deliver nothing")
	}
	if _, err := m.Exchange([][]transport.Message{{{To: -1}}, nil}); err == nil {
		t.Fatal("expected an error for a negative destination")
	}
}

func TestBroadcastErrorsOnBadRoot(t *testing.T) {
	m := testMachine(t, 2, true, 0)
	if _, err := m.Broadcast(2, transport.Message{Tag: transport.TagControl}); err == nil {
		t.Fatal("expected an error for an out-of-range root")
	}
	if _, err := m.Broadcast(-1, transport.Message{Tag: transport.TagControl}); err == nil {
		t.Fatal("expected an error for a negative root")
	}
}

func TestPerTagAccounting(t *testing.T) {
	m := testMachine(t, 3, true, 0)
	outbox := make([][]transport.Message, 3)
	outbox[0] = []transport.Message{
		{To: 1, Tag: transport.TagBoundaryDV, Bytes: 100},
		{To: 2, Tag: transport.TagMigrateRows, Bytes: 50},
	}
	if _, err := m.Exchange(outbox); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Broadcast(1, transport.Message{Tag: transport.TagNewVertexRow, Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.ByTag[transport.TagBoundaryDV].Bytes != 100 || st.ByTag[transport.TagBoundaryDV].Messages != 1 {
		t.Fatalf("boundary tag stats = %+v", st.ByTag[transport.TagBoundaryDV])
	}
	if st.ByTag[transport.TagMigrateRows].Bytes != 50 {
		t.Fatalf("migrate tag stats = %+v", st.ByTag[transport.TagMigrateRows])
	}
	if st.ByTag[transport.TagNewVertexRow].Messages != 2 || st.ByTag[transport.TagNewVertexRow].Bytes != 20 {
		t.Fatalf("broadcast tag stats = %+v", st.ByTag[transport.TagNewVertexRow])
	}
	total := int64(0)
	for _, ts := range st.ByTag {
		total += ts.Bytes
	}
	if total != st.Bytes {
		t.Fatalf("tag bytes %d != total %d", total, st.Bytes)
	}
}

// scriptHook is a test transport.FaultHook that replays a fixed fate sequence for
// boundary-DV attempts (then delivers), with a configurable down set.
type scriptHook struct {
	fates  []transport.Fate
	next   int
	budget int
	down   map[int]bool
}

func (h *scriptHook) Fate(xid int64, from, to, k, attempt int) transport.Fate {
	if h.next >= len(h.fates) {
		return transport.FateDeliver
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

func faultMachine(t *testing.T, p int, hook transport.FaultHook) *Machine {
	t.Helper()
	m, err := New(Config{
		Model:      logp.Model{L: 100, O: 10, G: 1, P: p, Compute: 1},
		Serialized: true,
		Fault:      hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func boundaryOutbox(p int) [][]transport.Message {
	outbox := make([][]transport.Message, p)
	outbox[0] = []transport.Message{{To: 1, Tag: transport.TagBoundaryDV, Bytes: 40, Payload: "dv"}}
	return outbox
}

// A dropped attempt must cost a full message slot and be retransmitted.
func TestFaultDropRetriesAndCharges(t *testing.T) {
	hook := &scriptHook{fates: []transport.Fate{transport.FateDrop, transport.FateDrop, transport.FateDeliver}}
	m := faultMachine(t, 2, hook)
	inbox, err := m.Exchange(boundaryOutbox(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox[1]) != 1 {
		t.Fatalf("delivered %d copies, want 1", len(inbox[1]))
	}
	st := m.Stats()
	if st.Dropped != 2 || st.Resends != 2 || st.Messages != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// 3 attempts at (o+L+o) + bytes*G each
	perAttempt := time.Duration(1)*(10+100+10) + 40*1
	if m.VirtualTime() != 3*perAttempt {
		t.Fatalf("virtual = %v, want %v", m.VirtualTime(), 3*perAttempt)
	}
}

// A duplicated message must arrive twice (receivers are idempotent).
func TestFaultDuplicateDeliversTwice(t *testing.T) {
	hook := &scriptHook{fates: []transport.Fate{transport.FateDuplicate}}
	m := faultMachine(t, 2, hook)
	inbox, err := m.Exchange(boundaryOutbox(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox[1]) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(inbox[1]))
	}
	st := m.Stats()
	if st.Duplicated != 1 || st.Messages != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// A delayed message must miss its exchange, count as in flight, and arrive
// at the start of the next one.
func TestFaultDelayDefersToNextExchange(t *testing.T) {
	hook := &scriptHook{fates: []transport.Fate{transport.FateDelay}}
	m := faultMachine(t, 2, hook)
	inbox, err := m.Exchange(boundaryOutbox(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox[1]) != 0 {
		t.Fatal("delayed message arrived early")
	}
	if m.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", m.InFlight())
	}
	inbox, err = m.Exchange(make([][]transport.Message, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox[1]) != 1 || inbox[1][0].Payload.(string) != "dv" {
		t.Fatalf("delayed message not released: %+v", inbox[1])
	}
	if m.InFlight() != 0 {
		t.Fatalf("InFlight = %d after release", m.InFlight())
	}
}

// Exhausting the resend budget must abandon the message and surface it
// through TakeFailed.
func TestFaultBudgetExhaustionSurfacesFailure(t *testing.T) {
	hook := &scriptHook{fates: []transport.Fate{transport.FateDrop, transport.FateCorrupt, transport.FateDrop}, budget: 3}
	m := faultMachine(t, 2, hook)
	inbox, err := m.Exchange(boundaryOutbox(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox[1]) != 0 {
		t.Fatal("abandoned message was delivered")
	}
	st := m.Stats()
	if st.Failed != 1 || st.Dropped != 2 || st.Corrupted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	failed := m.TakeFailed()
	if len(failed) != 1 || failed[0].From != 0 || failed[0].To != 1 {
		t.Fatalf("TakeFailed = %+v", failed)
	}
	if len(m.TakeFailed()) != 0 {
		t.Fatal("TakeFailed did not drain")
	}
}

// Boundary traffic to a down processor is lost without retries; reliable
// tags still deliver (the engine never sends them to down processors).
func TestFaultDownReceiverDropsBoundaryOnly(t *testing.T) {
	hook := &scriptHook{down: map[int]bool{1: true}}
	m := faultMachine(t, 3, hook)
	outbox := make([][]transport.Message, 3)
	outbox[0] = []transport.Message{
		{To: 1, Tag: transport.TagBoundaryDV, Bytes: 8},
		{To: 2, Tag: transport.TagBoundaryDV, Bytes: 8},
	}
	inbox, err := m.Exchange(outbox)
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox[1]) != 0 {
		t.Fatal("down processor received boundary traffic")
	}
	if len(inbox[2]) != 1 {
		t.Fatal("up processor missed its message")
	}
	if st := m.Stats(); st.DroppedDown != 1 {
		t.Fatalf("DroppedDown = %d, want 1", st.DroppedDown)
	}
}

// With a hook that always delivers, stats and costs must be bit-identical
// to the no-hook machine (the zero-fault plan property at cluster level).
func TestFaultZeroPlanBitIdentical(t *testing.T) {
	run := func(hook transport.FaultHook) (Stats, time.Duration) {
		m, err := New(Config{
			Model:      logp.Model{L: 100, O: 10, G: 1, P: 4, Compute: 1},
			Serialized: true,
			Fault:      hook,
		})
		if err != nil {
			t.Fatal(err)
		}
		outbox := make([][]transport.Message, 4)
		for p := 0; p < 4; p++ {
			for q := 0; q < 4; q++ {
				if q != p {
					outbox[p] = append(outbox[p], transport.Message{To: q, Tag: transport.TagBoundaryDV, Bytes: 100})
				}
			}
		}
		if _, err := m.Exchange(outbox); err != nil {
			t.Fatal(err)
		}
		return m.Stats(), m.VirtualTime()
	}
	plain, vtPlain := run(nil)
	hooked, vtHooked := run(&scriptHook{})
	if plain != hooked {
		t.Fatalf("stats differ:\nplain  %+v\nhooked %+v", plain, hooked)
	}
	if vtPlain != vtHooked {
		t.Fatalf("virtual time differs: %v vs %v", vtPlain, vtHooked)
	}
}

// TestBusyTimeImbalanceFixture is the hand-computed two-processor fixture
// behind the load-imbalance gauge: processor 0 is charged 300µs of work,
// processor 1 gets 100µs, so busy time splits 300/100 (mean 200, max 300 →
// imbalance 1.5) while the barrier synchronizes both wall clocks to 300µs
// without counting the idle wait as busy.
func TestBusyTimeImbalanceFixture(t *testing.T) {
	m := testMachine(t, 2, true, 0)
	m.Parallel(func(p int) {
		if p == 0 {
			m.ChargeDuration(0, 300*time.Microsecond)
		} else {
			m.ChargeDuration(1, 100*time.Microsecond)
		}
	})
	m.Barrier()
	if b0, b1 := m.BusyTime(0), m.BusyTime(1); b0 != 300*time.Microsecond || b1 != 100*time.Microsecond {
		t.Fatalf("busy times = %v, %v; want 300µs, 100µs", b0, b1)
	}
	if t0, t1 := m.ProcTime(0), m.ProcTime(1); t0 != 300*time.Microsecond || t1 != t0 {
		t.Fatalf("clocks after barrier = %v, %v; want both 300µs", t0, t1)
	}
	if got := obs.Imbalance([]time.Duration{m.BusyTime(0), m.BusyTime(1)}); got != 1.5 {
		t.Fatalf("imbalance = %v, want 1.5", got)
	}
}

// A boundary-tag broadcast is accounted like any other broadcast: a scripted
// drop is never drawn, so there are no drops or resends, every copy arrives
// once, and the charge is the tree cost alone.
func TestBroadcastBoundaryTagFaultAccounting(t *testing.T) {
	hook := &scriptHook{fates: []transport.Fate{transport.FateDrop, transport.FateDeliver, transport.FateDeliver, transport.FateDeliver}}
	m := faultMachine(t, 4, hook)
	out, err := m.Broadcast(0, transport.Message{Tag: transport.TagBoundaryDV, Bytes: 40, Payload: "dv"})
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q < 4; q++ {
		if len(out[q]) != 1 {
			t.Fatalf("processor %d got %d copies, want 1", q, len(out[q]))
		}
	}
	st := m.Stats()
	if st.Broadcasts != 1 || st.Messages != 3 || st.Dropped != 0 || st.Resends != 0 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if hook.next != 0 {
		t.Fatalf("fault hook consulted %d times for a broadcast", hook.next)
	}
	// ceil(log2 4) = 2 tree rounds at one message slot each, no extra attempts.
	perAttempt := time.Duration(1)*(10+100+10) + 40*1
	if want := 2 * perAttempt; m.VirtualTime() != want {
		t.Fatalf("virtual = %v, want %v", m.VirtualTime(), want)
	}
}

// Broadcasts ride the reliable plane whatever their tag: the fault hook is
// never consulted, every copy arrives, and the charge is the tree cost
// alone (ceil(log2 4) = 2 rounds of one message slot).
func TestBroadcastReliableTagsBypassFaults(t *testing.T) {
	for _, tag := range []transport.Tag{transport.TagControl, transport.TagBoundaryDV} {
		hook := &scriptHook{fates: []transport.Fate{transport.FateDrop, transport.FateDrop, transport.FateDrop}}
		m := faultMachine(t, 4, hook)
		out, err := m.Broadcast(1, transport.Message{Tag: tag, Bytes: 8, Payload: "go"})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 4; q++ {
			want := 1
			if q == 1 {
				want = 0
			}
			if len(out[q]) != want {
				t.Fatalf("tag %d: processor %d got %d copies, want %d", tag, q, len(out[q]), want)
			}
		}
		st := m.Stats()
		if st.Dropped != 0 || st.Resends != 0 || st.Messages != 3 || st.Bytes != 24 || st.Broadcasts != 1 {
			t.Fatalf("tag %d: stats = %+v", tag, st)
		}
		if hook.next != 0 {
			t.Fatalf("tag %d: fault hook consulted %d times for a broadcast", tag, hook.next)
		}
		if want := 2 * (time.Duration(1)*(10+100+10) + 8*1); m.VirtualTime() != want {
			t.Fatalf("tag %d: virtual = %v, want %v", tag, m.VirtualTime(), want)
		}
	}
}
