package logp

import (
	"testing"
	"time"
)

func TestModelValidate(t *testing.T) {
	if err := GigabitCluster(4).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Model{P: 0}).Validate(); err == nil {
		t.Fatal("P=0 should fail")
	}
	bad := GigabitCluster(2)
	bad.L = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative latency should fail")
	}
}

func TestCosts(t *testing.T) {
	m := Model{L: 100, O: 10, G: 2, P: 2, Compute: 3}
	if w := m.Work(7); w != 21 {
		t.Fatalf("Work = %v", w)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(10)
	c.Advance(-5) // negative ignored
	if c.Now() != 10 {
		t.Fatalf("Now = %v", c.Now())
	}
	c.AdvanceTo(7) // earlier ignored
	if c.Now() != 10 {
		t.Fatalf("Now = %v", c.Now())
	}
	c.AdvanceTo(25)
	if c.Now() != 25 {
		t.Fatalf("Now = %v", c.Now())
	}
}

func TestBarrierSynchronizesToMax(t *testing.T) {
	clocks := []*Clock{{}, {}, {}}
	clocks[0].Advance(5 * time.Millisecond)
	clocks[1].Advance(9 * time.Millisecond)
	clocks[2].Advance(1 * time.Millisecond)
	max := Barrier(clocks)
	if max != 9*time.Millisecond {
		t.Fatalf("barrier = %v", max)
	}
	for i, c := range clocks {
		if c.Now() != max {
			t.Fatalf("clock %d = %v", i, c.Now())
		}
	}
}

// TestClockBusyTracksAdvanceOnly: Advance accrues busy time, AdvanceTo
// (barrier/message-wait jumps) moves the clock without counting as busy.
func TestClockBusyTracksAdvanceOnly(t *testing.T) {
	var c Clock
	c.Advance(40 * time.Microsecond)
	c.AdvanceTo(100 * time.Microsecond)
	c.Advance(10 * time.Microsecond)
	c.AdvanceTo(50 * time.Microsecond) // behind: no-op
	if c.Now() != 110*time.Microsecond {
		t.Fatalf("Now = %v, want 110µs", c.Now())
	}
	if c.Busy() != 50*time.Microsecond {
		t.Fatalf("Busy = %v, want 50µs (idle jump excluded)", c.Busy())
	}
}
