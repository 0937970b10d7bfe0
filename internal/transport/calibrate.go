package transport

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"anytime/internal/logp"
)

// Calibration holds measured LogP parameters for a transport: instead of
// guessing the virtual clock's o/g/L, the engine can measure real round
// trips over the actual message plane and charge those. The procedure is
// the classic LogP microbenchmark suite (Culler et al.):
//
//   - RTT_small: ping-pong of a small payload between ranks 0 and 1. One
//     direction costs o_send + L + o_recv.
//   - o (overhead): the incremental cost of a burst — a round trip that
//     carries K small messages instead of 1 costs (K-1) extra endpoint
//     handling on each side (latency pipelines away), so
//     o = (RTT_burst - RTT_small) / (2 (K-1)), attributing half of each
//     message's handling to each endpoint.
//   - g (gap per byte): ping-pong of a large payload; the extra time over
//     the small round trip is serialization, so
//     g = (RTT_large - RTT_small) / (2 * payload bytes).
//   - L (latency): what remains of the small round trip,
//     L = RTT_small/2 - 2o, clamped at zero.
//
// Medians over many rounds are used throughout: TCP round trips have a
// heavy tail (Nagle, scheduler, GC), and the LogP model wants the
// steady-state cost, not the worst case.
type Calibration struct {
	Samples    int           // ping-pong rounds per measurement
	SmallBytes int           // small-payload size
	LargeBytes int           // large-payload size
	BurstLen   int           // messages per burst round trip
	RTTSmall   time.Duration // median small round trip
	RTTLarge   time.Duration // median large round trip
	RTTBurst   time.Duration // median burst round trip
	O          time.Duration // per-message endpoint overhead
	G          time.Duration // per-byte gap (serialization cost)
	L          time.Duration // wire latency
}

// Model materializes the calibration as LogP parameters for a P-processor
// machine, keeping the default per-op compute cost.
func (c Calibration) Model(p int) logp.Model {
	m := logp.GigabitCluster(p)
	m.L, m.O, m.G = c.L, c.O, c.G
	return m
}

// SaveCalibration writes the calibration as JSON, so a measured
// interconnect model can be fed back into harness runs (aaexperiments
// -model) long after the cluster is gone.
func SaveCalibration(path string, c Calibration) error {
	blob, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// LoadCalibration reads a calibration JSON written by SaveCalibration.
func LoadCalibration(path string) (Calibration, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Calibration{}, err
	}
	var c Calibration
	if err := json.Unmarshal(blob, &c); err != nil {
		return Calibration{}, fmt.Errorf("transport: calibration file %s: %w", path, err)
	}
	return c, nil
}

// String formats the calibration as a one-line report row.
func (c Calibration) String() string {
	return fmt.Sprintf("o=%v g=%v/B L=%v (RTT %dB=%v %dB=%v burst%d=%v, %d rounds)",
		c.O, c.G, c.L, c.SmallBytes, c.RTTSmall, c.LargeBytes, c.RTTLarge,
		c.BurstLen, c.RTTBurst, c.Samples)
}

// Calibrate measures o/g/L over the transport. It is a collective: every
// rank must call it. Ranks 0 and 1 ping-pong; the others participate in
// the exchanges with empty outboxes (their marker traffic is part of what
// a real RC step pays too). rounds <= 0 picks 32.
func Calibrate(t Transport, rounds int) (Calibration, error) {
	if t.Size() < 2 {
		return Calibration{}, fmt.Errorf("transport: calibration needs >= 2 ranks")
	}
	if rounds <= 0 {
		rounds = 32
	}
	const smallBytes = 16
	const burstLen = 32
	largeBytes := 256 << 10
	cal := Calibration{Samples: rounds, SmallBytes: smallBytes, LargeBytes: largeBytes, BurstLen: burstLen}

	var err error
	if cal.RTTSmall, err = pingPong(t, rounds, smallBytes, 1); err != nil {
		return cal, err
	}
	if cal.RTTBurst, err = pingPong(t, rounds, smallBytes, burstLen); err != nil {
		return cal, err
	}
	if cal.RTTLarge, err = pingPong(t, rounds, largeBytes, 1); err != nil {
		return cal, err
	}
	if extra := cal.RTTBurst - cal.RTTSmall; extra > 0 {
		cal.O = extra / time.Duration(2*(burstLen-1))
	}
	if extra := cal.RTTLarge - cal.RTTSmall; extra > 0 {
		// Round to the nearest nanosecond: per-byte gaps on fast links are
		// fractional, and truncation would report a free wire.
		denom := time.Duration(2 * largeBytes)
		cal.G = (extra + denom/2) / denom
	}
	if l := cal.RTTSmall/2 - 2*cal.O; l > 0 {
		cal.L = l
	}
	return cal, nil
}

// pingPong runs `rounds` round trips of `count` messages of `bytes`
// payload from rank 0 to rank 1, echoed back as one message, and returns
// the median round-trip time. Rank 0 measures; its median is broadcast so
// every rank returns the same number.
func pingPong(t Transport, rounds, bytes, count int) (time.Duration, error) {
	payload := make([]byte, bytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	rtts := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		var out []Message
		if t.Rank() == 0 {
			out = make([]Message, count)
			for i := range out {
				out[i] = Message{To: 1, Tag: TagControl, Bytes: bytes, Payload: payload}
			}
		}
		start := time.Now()
		in, err := t.Exchange(out)
		if err != nil {
			return 0, err
		}
		out = nil
		if t.Rank() == 1 {
			if len(in) < count {
				return 0, fmt.Errorf("transport: calibration echo rank got %d/%d pings", len(in), count)
			}
			out = []Message{{To: 0, Tag: TagControl, Bytes: bytes, Payload: payload}}
		}
		if _, err := t.Exchange(out); err != nil {
			return 0, err
		}
		if t.Rank() == 0 {
			rtts = append(rtts, time.Since(start))
		}
	}
	// Rank 0 computed the median; share it so every rank reports the same
	// calibration.
	buf := make([]byte, 8)
	if t.Rank() == 0 {
		binary.LittleEndian.PutUint64(buf, uint64(median(rtts)))
	}
	got, err := t.Broadcast(0, Message{Tag: TagControl, Bytes: len(buf), Payload: buf})
	if err != nil {
		return 0, err
	}
	if t.Rank() != 0 {
		buf = got.Payload.([]byte)
	}
	return time.Duration(binary.LittleEndian.Uint64(buf)), nil
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
