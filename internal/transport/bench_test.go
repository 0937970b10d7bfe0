package transport

import (
	"math/rand"
	"sync"
	"testing"

	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/kernel"
)

// benchRoundTrip measures one boundary-DV round trip (rank 0 ships a
// delta window, rank 1 echoes it) — the unit cost every RC step pays per
// peer. Both ranks run the same number of collectives per iteration.
func benchRoundTrip(b *testing.B, ts []Transport, width int) {
	ds := []*dv.Delta{{Owner: 1, Lo: 0, D: make([]graph.Dist, width)}}
	for i := range ds[0].D {
		ds[0].D[i] = graph.Dist(i)
	}
	msg := Message{Tag: TagBoundaryDV, Bytes: EncodedDeltaBytes(ds), Payload: ds}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		echo := msg
		echo.To = 0
		for i := 0; i < b.N; i++ {
			if _, err := ts[1].Exchange(nil); err != nil {
				b.Error(err)
				return
			}
			if _, err := ts[1].Exchange([]Message{echo}); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	ping := msg
	ping.To = 1
	b.SetBytes(int64(2 * msg.Bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts[0].Exchange([]Message{ping}); err != nil {
			b.Fatal(err)
		}
		if _, err := ts[0].Exchange(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	wg.Wait()
}

func BenchmarkTransportRoundTripInproc(b *testing.B) {
	benchRoundTrip(b, asTransports(NewInprocGroup(2)), 256)
}

func BenchmarkTransportRoundTripTCP(b *testing.B) {
	benchRoundTrip(b, newTCPMesh(b, 2), 256)
}

// BenchmarkTransportBulkTCP ships about 1 MB of boundary deltas each way in
// one exchange over a 2-rank loopback mesh — the benchmark module's
// wire_exchange bulk round: 60 % of the rows full width (2000 columns),
// the rest 64-aligned windows with their frontier words. Encode, frame,
// CRC, socket and decode all land in ns/op.
func BenchmarkTransportBulkTCP(b *testing.B) {
	ts := newTCPMesh(b, 2)
	rng := rand.New(rand.NewSource(1))
	var out [2][]Message
	var total int64
	for r := range out {
		ds := bulkDeltas(rng, 2000, 1<<20)
		out[r] = []Message{{To: 1 - r, Tag: TagBoundaryDV, Bytes: EncodedDeltaBytes(ds), Payload: ds}}
		total += int64(out[r][0].Bytes)
	}
	b.SetBytes(total)
	b.ResetTimer()
	runGroup(b, ts, func(tr Transport) (int, error) {
		for i := 0; i < b.N; i++ {
			if _, err := tr.Exchange(out[tr.Rank()]); err != nil {
				return i, err
			}
		}
		return b.N, nil
	})
}

// bulkDeltas builds boundary deltas of about the given encoded size over
// rows of cols columns, in wire_exchange's full/window mix.
func bulkDeltas(rng *rand.Rand, cols, size int) []*dv.Delta {
	var ds []*dv.Delta
	for n := 0; n < size; {
		d := &dv.Delta{Owner: int32(rng.Intn(cols))}
		width := cols
		if rng.Intn(10) >= 6 {
			d.Lo = int32(rng.Intn(cols/64)) * 64
			width = min(64+rng.Intn(448), cols-int(d.Lo))
			d.F = kernel.NewBitset(width)
			for c := 0; c < width; c += 1 + rng.Intn(8) {
				d.F.Set(c)
			}
		}
		d.D = make([]graph.Dist, width)
		for c := range d.D {
			d.D[c] = graph.Dist(1 + rng.Intn(12))
		}
		ds = append(ds, d)
		n += d.WireBytes()
	}
	return ds
}
