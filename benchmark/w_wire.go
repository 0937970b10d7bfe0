package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"time"

	"anytime/internal/change"
	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/kernel"
	"anytime/internal/transport"
)

// wireExchange is the message plane with no compute behind it: two
// transport.TCP endpoints on loopback run the exchange rounds of an RC
// step. A bulk round ships about 1 MB of dv.Deltas each way in one
// boundary message per rank (what a rank.Runner step sends), 60 % of the
// rows full width and the rest 64-aligned windows with their frontier
// words; a control round is the runner's convergence vote: a few bytes to
// rank 0 and the decision broadcast back. Compute swamps this layer in the
// other workloads, so codec, frame, CRC and socket work only shows here.
type wireExchange struct {
	env
	mesh []transport.Transport
	// bulk[r][i] is what rank r sends in bulk round i of every cycle.
	bulk     [2][][]*dv.Delta
	bulkSize int

	first     transport.Stats
	exchangeS time.Duration
}

func (w *wireExchange) Setup() error {
	for r := range w.bulk {
		rng := rand.New(rand.NewSource(w.derive(int64(100 + r))))
		for i := 0; i < w.size.wireBulkRounds; i++ {
			ds := randomDeltas(rng, w.size.wireCols, w.size.wireBulkBytes)
			w.bulk[r] = append(w.bulk[r], ds)
			w.bulkSize = transport.EncodedDeltaBytes(ds)
		}
	}
	var err error
	w.mesh, err = tcpMesh(2)
	return err
}

// randomDeltas builds boundary deltas up to about the given encoded size.
func randomDeltas(rng *rand.Rand, cols, bytes int) []*dv.Delta {
	var ds []*dv.Delta
	for size := 0; size < bytes; {
		d := &dv.Delta{Owner: int32(rng.Intn(cols))}
		width := cols
		if rng.Float64() >= 0.6 {
			d.Lo = int32(rng.Intn(cols/64)) * 64
			width = min(64+rng.Intn(448), cols-int(d.Lo))
			d.F = kernel.NewBitset(width)
			for t := 0; t < width; t++ {
				if rng.Intn(8) == 0 {
					d.F.Set(t)
				}
			}
		}
		d.D = make([]graph.Dist, width)
		for t := range d.D {
			d.D[t] = graph.Dist(1 + rng.Intn(12))
		}
		ds = append(ds, d)
		size += d.WireBytes()
	}
	return ds
}

func sameDeltas(a, b []*dv.Delta) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Owner != y.Owner || x.Lo != y.Lo || len(x.D) != len(y.D) || len(x.F) != len(y.F) {
			return false
		}
		for t := range x.D {
			if x.D[t] != y.D[t] {
				return false
			}
		}
		for t := range x.F {
			if x.F[t] != y.F[t] {
				return false
			}
		}
	}
	return true
}

// bulkRound meets the peer in a Barrier, then ships ds to it in one
// boundary message and times the Exchange.
func bulkRound(t transport.Transport, ds []*dv.Delta, rec *recorder) ([]transport.Message, time.Duration, error) {
	if err := t.Barrier(); err != nil {
		return nil, 0, err
	}
	op := rec.begin(0, "bench.bulk")
	sp := rec.begin(op, "transport.Exchange")
	t0 := time.Now()
	in, err := t.Exchange([]transport.Message{{To: 1 - t.Rank(), Tag: transport.TagBoundaryDV,
		Bytes: transport.EncodedDeltaBytes(ds), Payload: ds}})
	took := time.Since(t0)
	rec.end(sp)
	rec.end(op)
	return in, took, err
}

// Cycle runs the bulk rounds and then the control rounds. Rank 0 is the
// timing side; rank 1 mirrors it. Both ranks meet in a Barrier before every
// timed bulk round, and what a round delivered is compared with what the
// peer sent before the next round starts, with the meter stopped.
func (w *wireExchange) Cycle(c int, m *meter) error {
	for i := 0; i < w.size.wireBulkRounds && !m.spent(); i++ {
		var in [2][]transport.Message
		var took [2]time.Duration
		err := eachRank(2, func(r int) (err error) {
			rec := w.rec
			if r != 0 { // rank 1's spans would cover the same interval twice
				rec = nil
			}
			in[r], took[r], err = bulkRound(w.mesh[r], w.bulk[r][i], rec)
			return err
		})
		if err != nil {
			return err
		}
		m.update(took[0])
		w.exchangeS += took[0]
		m.untimed(func() {
			for r := range in {
				if len(in[r]) != 1 || !sameDeltas(in[r][0].Payload.([]*dv.Delta), w.bulk[1-r][i]) {
					m.fail(1, "wire_exchange cycle %d round %d: rank %d received a payload that differs from what was sent", c, i, r)
				}
			}
		})
	}

	var ctl []time.Duration
	var bad [2]int
	err := eachRank(2, func(r int) error {
		t := w.mesh[r]
		vote, decision := make([]byte, 8), make([]byte, 8)
		for i := 0; i < w.size.wireCtlRounds; i++ {
			round := uint64(c)<<32 | uint64(i)
			binary.LittleEndian.PutUint64(vote, round)
			binary.LittleEndian.PutUint64(decision, ^round)
			var out []transport.Message
			if r != 0 {
				out = []transport.Message{{To: 0, Tag: transport.TagControl, Bytes: len(vote), Payload: vote}}
			}
			var sp, sp2 int32
			if r == 0 {
				sp = w.rec.begin(0, "bench.vote")
				sp2 = w.rec.begin(sp, "transport.Exchange")
			}
			t0 := time.Now()
			in, err := t.Exchange(out)
			w.rec.end(sp2)
			if err != nil {
				return err
			}
			if r == 0 {
				sp2 = w.rec.begin(sp, "transport.Broadcast")
			}
			msg, err := t.Broadcast(0, transport.Message{Tag: transport.TagControl, Bytes: len(decision), Payload: decision})
			d := time.Since(t0)
			w.rec.end(sp2)
			w.rec.end(sp)
			if err != nil {
				return err
			}
			if r == 0 {
				ctl = append(ctl, d)
				if len(in) != 1 || !bytes.Equal(in[0].Payload.([]byte), vote) {
					bad[r]++
				}
			} else if msg == nil || !bytes.Equal(msg.Payload.([]byte), decision) {
				bad[r]++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, d := range ctl {
		m.answer(d)
	}
	if n := bad[0] + bad[1]; n > 0 {
		m.fail(n, "wire_exchange cycle %d: %d control rounds delivered the wrong vote or decision", c, n)
	}
	st := w.mesh[0].Stats()
	if c == 0 {
		w.first = st
	}
	if st.CRCErrors+st.SendFailures > 0 {
		m.fail(1, "wire_exchange: %d CRC errors, %d send failures", st.CRCErrors, st.SendFailures)
	}
	return nil
}

func (w *wireExchange) Layers(m *meter, b *budget, out map[string]float64) {
	out["transport.bytes_sent"] = float64(w.first.BytesSent)
	out["transport.frames_sent"] = float64(w.first.FramesSent)
	out["transport.exchanges"] = float64(w.first.Exchanges)
	out["transport.retries"] = float64(w.first.RetryAttempts)
	out["transport.crc_errors"] = float64(w.first.CRCErrors)
	out["transport.exchange_s"] = w.exchangeS.Seconds() / float64(len(m.updates))
	out["transport.wire_mb_s"] = 2 * float64(w.bulkSize) / 1e6 / quantile(m.updates, 0.5).Seconds()
	out["transport.rtt_p50_ms"] = ms(quantile(m.answers, 0.5))

	// The same bulk rounds over the in-process transport (payloads move by
	// reference): the reference the socket path is compared with.
	mesh := inprocMesh(2)
	var rounds []time.Duration
	err := eachRank(2, func(r int) error {
		for _, ds := range w.bulk[r] {
			_, took, err := bulkRound(mesh[r], ds, nil)
			if err != nil {
				return err
			}
			if r == 0 {
				rounds = append(rounds, took)
			}
		}
		return nil
	})
	closeAll(mesh)
	if err != nil {
		m.fail(1, "wire_exchange over inproc: %v", err)
		return
	}
	out["transport.inproc_mb_s"] = 2 * float64(w.bulkSize) / 1e6 / quantile(rounds, 0.5).Seconds()
	out["transport.tcp_minus_inproc_s"] = (quantile(m.updates, 0.5) - quantile(rounds, 0.5)).Seconds()
	out["transport.events_codec_ns"] = eventsCodecProbe(w.env)
}

// eventsCodecProbe times one encode + decode of a 16-vertex batch event,
// the payload rank 0 ships when vertices arrive over the wire.
func eventsCodecProbe(e env) float64 {
	rng := rand.New(rand.NewSource(e.derive(300)))
	b := &change.VertexBatch{NumVertices: 16}
	for v := int32(0); v < 16; v++ {
		b.External = append(b.External, change.ExternalEdge{New: v, Existing: int32(rng.Intn(1000)), Weight: 1})
		if v > 0 {
			b.Internal = append(b.Internal, change.InternalEdge{A: v, B: int32(rng.Intn(int(v))), Weight: 1})
		}
	}
	evs := []change.Event{{Batch: b}}
	const reps = 2000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		body, err := transport.EncodeEvents(evs)
		if err != nil {
			return 0
		}
		if _, err := transport.DecodeEvents(body); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0)) / reps
}

func (w *wireExchange) Close() {
	closeAll(w.mesh)
	w.mesh = nil
}
