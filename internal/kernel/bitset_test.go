package kernel

import (
	"math/rand"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(200)
	if len(b) != BitsetWords(200) || BitsetWords(200) != 4 {
		t.Fatalf("words = %d, want 4", len(b))
	}
	if b.Any() || b.OnesCount() != 0 || b.NonzeroWords() != 0 {
		t.Fatal("fresh bitset not empty")
	}
	for _, i := range []int{0, 63, 64, 127, 199} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.OnesCount() != 5 || !b.Any() {
		t.Fatalf("popcount = %d, want 5", b.OnesCount())
	}
	if b.NonzeroWords() != 3 { // bits live in words 0, 1, 3
		t.Fatalf("nonzero words = %d, want 3", b.NonzeroWords())
	}
	b.Clear(64)
	if b.Get(64) || b.OnesCount() != 4 {
		t.Fatal("clear failed")
	}
	b.Reset()
	if b.Any() {
		t.Fatal("reset left bits")
	}
}

func TestBitsetNextSet(t *testing.T) {
	b := NewBitset(300)
	if b.NextSet(0) != -1 {
		t.Fatal("empty bitset has a set bit")
	}
	for _, i := range []int{5, 63, 64, 130, 299} {
		b.Set(i)
	}
	var got []int
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		got = append(got, i)
	}
	want := []int{5, 63, 64, 130, 299}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
	if b.NextSet(300) != -1 || b.NextSet(10000) != -1 {
		t.Fatal("NextSet past the end should be -1")
	}
	if b.NextSet(-5) != 5 {
		t.Fatal("negative start should clamp to 0")
	}
}

func TestBitsetSetRange(t *testing.T) {
	for _, tc := range []struct{ lo, hi int }{
		{0, 0}, {0, 1}, {0, 64}, {3, 7}, {60, 70}, {64, 128}, {1, 200}, {199, 200}, {63, 65},
	} {
		b := NewBitset(200)
		b.SetRange(tc.lo, tc.hi)
		for i := 0; i < 200; i++ {
			want := i >= tc.lo && i < tc.hi
			if b.Get(i) != want {
				t.Fatalf("range [%d,%d): bit %d = %v, want %v", tc.lo, tc.hi, i, b.Get(i), want)
			}
		}
		if b.OnesCount() != tc.hi-tc.lo {
			t.Fatalf("range [%d,%d): popcount %d", tc.lo, tc.hi, b.OnesCount())
		}
	}
}

func TestBitsetOr(t *testing.T) {
	a := NewBitset(128)
	b := NewBitset(128)
	a.Set(3)
	a.Set(100)
	b.Set(3)
	b.Set(64)
	a.Or(b)
	for _, i := range []int{3, 64, 100} {
		if !a.Get(i) {
			t.Fatalf("bit %d lost by Or", i)
		}
	}
	if a.OnesCount() != 3 {
		t.Fatalf("popcount %d after Or, want 3", a.OnesCount())
	}
	// Mismatched lengths fold only the common prefix, without panicking.
	short := NewBitset(64)
	short.Set(10)
	long := NewBitset(256)
	long.Set(200)
	short.Or(long)
	long.Or(short)
	if !short.Get(10) || !long.Get(10) || !long.Get(200) {
		t.Fatal("mismatched-length Or wrong")
	}
}

// FuzzBitset drives a random op sequence against a map[int]bool reference
// model, checking set/clear/get/or and full NextSet iteration round-trip.
func FuzzBitset(f *testing.F) {
	f.Add([]byte{0, 5, 1, 5, 2, 5, 3, 0})
	f.Add([]byte{0, 63, 0, 64, 0, 127, 3, 0, 2, 64})
	seed := make([]byte, 64)
	rand.New(rand.NewSource(9)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 193 // odd size: last word partially used
		b := NewBitset(n)
		other := NewBitset(n)
		ref := map[int]bool{}
		otherRef := map[int]bool{}
		for len(data) >= 2 {
			op := data[0] % 5
			i := int(data[1]) % n
			data = data[2:]
			switch op {
			case 0:
				b.Set(i)
				ref[i] = true
			case 1:
				b.Clear(i)
				delete(ref, i)
			case 2:
				other.Set(i)
				otherRef[i] = true
			case 3:
				b.Or(other)
				for k := range otherRef {
					ref[k] = true
				}
			case 4:
				if b.Get(i) != ref[i] {
					t.Fatalf("Get(%d) = %v, ref %v", i, b.Get(i), ref[i])
				}
			}
		}
		// Round-trip: NextSet iteration must reproduce the reference set.
		got := map[int]bool{}
		for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
			if i >= n {
				t.Fatalf("NextSet returned %d >= n", i)
			}
			if got[i] {
				t.Fatalf("NextSet revisited %d", i)
			}
			got[i] = true
		}
		if len(got) != len(ref) {
			t.Fatalf("iterated %d bits, ref has %d", len(got), len(ref))
		}
		for k := range ref {
			if !got[k] {
				t.Fatalf("bit %d in ref but not iterated", k)
			}
		}
		if b.OnesCount() != len(ref) {
			t.Fatalf("popcount %d, ref %d", b.OnesCount(), len(ref))
		}
	})
}

// TestBitsetOnesCountBelow: the bits below n, which is what a mask
// compiled for width n charges (BlockMask.Ops), at every width around the
// word boundaries and past the bitset's end.
func TestBitsetOnesCountBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	b := NewBitset(200)
	for i := 0; i < 200; i += 1 + rng.Intn(5) {
		b.Set(i)
	}
	for n := 0; n <= 260; n++ {
		want := 0
		for i := 0; i < min(n, 200); i++ {
			if b.Get(i) {
				want++
			}
		}
		if got := b.OnesCountBelow(n); got != want {
			t.Fatalf("OnesCountBelow(%d) = %d, want %d", n, got, want)
		}
		var m BlockMask
		m.Compile(nil, b, n)
		if m.Ops() != want {
			t.Fatalf("width %d: compiled mask charges %d, OnesCountBelow %d", n, m.Ops(), want)
		}
	}
}
