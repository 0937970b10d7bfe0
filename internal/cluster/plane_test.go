package cluster_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"anytime/internal/cluster"
	"anytime/internal/fault"
	"anytime/internal/logp"
	"anytime/internal/transport"
)

// TestOneFaultPlaneAcrossShapes drives one seeded plan and one traffic
// pattern through the simulator's all-to-all and through the fault wrapper
// over three in-process ranks. Both run the same plane, so inboxes, the
// in-flight count, the abandoned messages and the seven fault counters must
// agree exchange by exchange — including a delayed message released to a
// receiver that went down in the meantime.
func TestOneFaultPlaneAcrossShapes(t *testing.T) {
	const P = 3
	plan := fault.Plan{Seed: 7, DropRate: .3, DuplicateRate: .1, DelayRate: .1, CorruptRate: .1, ResendBudget: 2}
	traffic := func(x, p int) []transport.Message {
		var out []transport.Message
		for i := 0; i < 4; i++ {
			for q := 0; q < P; q++ {
				out = append(out, transport.Message{To: q, Tag: transport.TagBoundaryDV, Bytes: 16,
					Payload: fmt.Sprintf("x%d %d>%d #%d", x, p, q, i)})
			}
			if i == 1 {
				out = append(out, transport.Message{To: (p + 1) % P, Tag: transport.TagControl, Bytes: 4,
					Payload: fmt.Sprintf("x%d %d>%d ctl", x, p, (p+1)%P)})
			}
		}
		return out
	}
	ids := func(msgs []transport.Message) []string {
		var s []string
		for _, m := range msgs {
			s = append(s, fmt.Sprintf("%d:%v", m.From, m.Payload))
		}
		sort.Strings(s)
		return s
	}

	simInj, err := fault.NewInjector(plan, P)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := cluster.New(cluster.Config{Model: logp.GigabitCluster(P), Serialized: true, Fault: simInj})
	if err != nil {
		t.Fatal(err)
	}
	rankInj, err := fault.NewInjector(plan, P)
	if err != nil {
		t.Fatal(err)
	}
	group := transport.NewInprocGroup(P)
	ranks := make([]*transport.Lossy, P)
	for r := range ranks {
		ranks[r] = transport.WithFaults(group[r], rankInj).(*transport.Lossy)
	}

	for x := 0; x < 2; x++ {
		down := x == 1 // processor 2 is down for the second exchange
		simInj.SetDown(2, down)
		rankInj.SetDown(2, down)

		outbox := make([][]transport.Message, P)
		for p := range outbox {
			outbox[p] = traffic(x, p)
		}
		simIn, err := mach.Exchange(outbox)
		if err != nil {
			t.Fatal(err)
		}
		rankIn := make([][]transport.Message, P)
		errs := make([]error, P)
		var wg sync.WaitGroup
		for r := range ranks {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rankIn[r], errs[r] = ranks[r].Exchange(traffic(x, r))
			}(r)
		}
		wg.Wait()

		var inFlight int
		var rankFailed []transport.Message
		var sum transport.FaultStats
		for r := range ranks {
			if errs[r] != nil {
				t.Fatal(errs[r])
			}
			if got, want := ids(rankIn[r]), ids(simIn[r]); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("exchange %d, receiver %d:\n wrapper   %v\n simulator %v", x, r, got, want)
			}
			inFlight += ranks[r].InFlight()
			rankFailed = append(rankFailed, ranks[r].TakeFailed()...)
			fs := ranks[r].FaultStats()
			sum.Resends += fs.Resends
			sum.Dropped += fs.Dropped
			sum.Duplicated += fs.Duplicated
			sum.Delayed += fs.Delayed
			sum.Corrupted += fs.Corrupted
			sum.Failed += fs.Failed
			sum.DroppedDown += fs.DroppedDown
		}
		simFailed := mach.TakeFailed()
		if inFlight != mach.InFlight() {
			t.Errorf("exchange %d: in flight wrapper %d, simulator %d", x, inFlight, mach.InFlight())
		}
		if got, want := ids(rankFailed), ids(simFailed); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("exchange %d: abandoned\n wrapper   %v\n simulator %v", x, got, want)
		}
		if st := mach.Stats(); sum != st.FaultStats {
			t.Errorf("exchange %d: fault counters\n wrapper   %+v\n simulator %+v", x, sum, st.FaultStats)
		}
	}
}
