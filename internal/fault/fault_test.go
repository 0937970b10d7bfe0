package fault

import (
	"testing"

	"anytime/internal/transport"
)

func TestValidate(t *testing.T) {
	bad := []Plan{
		{DropRate: -0.1},
		{DropRate: 1.5},
		{DropRate: 0.6, DelayRate: 0.6},
		{ResendBudget: -1},
		{Crashes: []Crash{{Proc: 4, Step: 0}}},
		{Crashes: []Crash{{Proc: 0, Step: -1}}},
		{Crashes: []Crash{{Proc: 0, Step: 0, DownFor: -2}}},
	}
	for i, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("plan %d: Validate accepted %+v", i, p)
		}
	}
	ok := Plan{Seed: 1, DropRate: 0.1, DelayRate: 0.1, Crashes: []Crash{{Proc: 3, Step: 2, DownFor: 1}}}
	if err := ok.Validate(4); err != nil {
		t.Fatalf("Validate rejected valid plan: %v", err)
	}
}

func TestZero(t *testing.T) {
	if !(Plan{Seed: 7, ResendBudget: 3}).Zero() {
		t.Error("rate-free plan not Zero")
	}
	if (Plan{DropRate: 0.1}).Zero() || (Plan{Crashes: []Crash{{}}}).Zero() {
		t.Error("faulty plan reported Zero")
	}
}

func TestFateDeterministicAndSeedSensitive(t *testing.T) {
	mk := func(seed int64) *Injector {
		in, err := NewInjector(Plan{Seed: seed, DropRate: 0.2, DuplicateRate: 0.1, DelayRate: 0.1, CorruptRate: 0.1}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := mk(1), mk(1), mk(2)
	same, diff := true, false
	for xid := int64(0); xid < 50; xid++ {
		for mi := 0; mi < 4; mi++ {
			fa := a.Fate(xid, 0, 1, mi, 0)
			if fa != b.Fate(xid, 0, 1, mi, 0) {
				same = false
			}
			if fa != c.Fate(xid, 0, 1, mi, 0) {
				diff = true
			}
		}
	}
	if !same {
		t.Error("identical plans produced different fates")
	}
	if !diff {
		t.Error("different seeds produced identical schedules")
	}
}

func TestFateRatesRoughlyMatch(t *testing.T) {
	in, err := NewInjector(Plan{Seed: 42, DropRate: 0.25, DelayRate: 0.25}, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[transport.Fate]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		counts[in.Fate(int64(i), 0, 1, i%7, 0)]++
	}
	for fate, want := range map[transport.Fate]float64{
		transport.FateDrop:    0.25,
		transport.FateDelay:   0.25,
		transport.FateDeliver: 0.5,
	} {
		got := float64(counts[fate]) / trials
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("fate %d frequency %.3f, want ≈ %.2f", fate, got, want)
		}
	}
}

// The injector fates every attempt it is asked about; the fault plane asks
// only for boundary DVs, so the reliable tags deliver under any plan.
func TestReliablePlaneAlwaysDelivers(t *testing.T) {
	in, err := NewInjector(Plan{Seed: 3, DropRate: 0.9, CorruptRate: 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl := transport.NewFaultPlane(in)
	for _, tag := range []transport.Tag{transport.TagMigrateRows, transport.TagNewVertexRow, transport.TagControl} {
		for i := 0; i < 200; i++ {
			pl.Begin()
			if d := pl.Send(transport.Message{From: 0, To: 1, Tag: tag}); d.Copies != 1 || d.Held || d.Slots != 1 {
				t.Fatalf("tag %d got %+v, want one delivered copy", tag, d)
			}
		}
	}
	if st := pl.Stats(); st != (transport.FaultStats{}) {
		t.Fatalf("reliable traffic moved fault counters: %+v", st)
	}
}

func TestDownBookkeeping(t *testing.T) {
	in, err := NewInjector(Plan{Crashes: []Crash{{Proc: 1, Step: 3, DownFor: 2}, {Proc: 0, Step: 3}}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if in.AnyDown() {
		t.Error("fresh injector has down processors")
	}
	in.SetDown(1, true)
	if !in.Down(1) || in.Down(0) || !in.AnyDown() {
		t.Error("SetDown(1) not reflected")
	}
	in.SetDown(1, false)
	if in.AnyDown() {
		t.Error("rejoin not reflected")
	}
	if got := len(in.CrashesAt(3)); got != 2 {
		t.Errorf("CrashesAt(3) = %d crashes, want 2", got)
	}
	if got := len(in.CrashesAt(4)); got != 0 {
		t.Errorf("CrashesAt(4) = %d crashes, want 0", got)
	}
	if in.ResendBudget() != 8 {
		t.Errorf("default ResendBudget = %d, want 8", in.ResendBudget())
	}
}
