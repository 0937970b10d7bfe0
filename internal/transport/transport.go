// Package transport is the pluggable message plane of the anytime-anywhere
// engine: the boundary-DV / ack / broadcast traffic that internal/cluster
// previously moved through in-process slices is abstracted behind a
// rank-addressed, bulk-synchronous Transport interface with two backends —
// an in-process hub (the default; bit-identical to the pre-transport
// engine) and a stdlib-TCP mesh that runs the same engine as N real OS
// processes, exchanging length-prefixed CRC-guarded binary frames whose
// boundary payloads are the dv.Delta wire format (dv.Delta.WireBytes is
// the actual byte count on the wire).
//
// The package also owns the one lossy-link fault plane (FaultPlane: fates,
// resends, delays, abandoned messages and their counters). The Lossy
// wrapper runs it above any backend and internal/cluster's simulator runs
// it under its LogP schedule, so a seeded plan faults the same messages on
// both; injected faults and real network failures surface through the same
// TakeFailed channel, so the engine has one recovery path (re-mark the
// affected rows for a full re-ship) regardless of backend.
package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"anytime/internal/change"
	"anytime/internal/dv"
)

// Tag distinguishes message kinds on the wire: the public kinds every
// message plane (the simulator included) carries, plus internal control
// tags used by the TCP framing.
type Tag uint8

const (
	// TagBoundaryDV carries updated boundary distance vectors (RC phase).
	TagBoundaryDV Tag = iota
	// TagNewVertexRow carries a vertex batch's event list (vertex addition),
	// which every rank applies to its own copy of the graph.
	TagNewVertexRow
	// TagMigrateRows carries rows of vertices relocated by repartitioning.
	TagMigrateRows
	// TagControl carries small control/termination information.
	TagControl

	// tagStepEnd marks the end of one rank's traffic for one Exchange (the
	// BSP step framing of the TCP backend; never surfaced to callers).
	tagStepEnd
	// tagHandshake opens a TCP link: it carries the dialer's rank and the
	// protocol version.
	tagHandshake
	// tagHeartbeat is the liveness plane's keepalive: sent every
	// HeartbeatInterval on every active link, consumed by the receiver's
	// last-heard clock, never queued as step traffic.
	tagHeartbeat
	// tagRejoin opens a link from a restarted process: accepted from any
	// rank (unlike tagHandshake) and installed in the pending state until
	// the runner's consensus activates it.
	tagRejoin
	// tagRejoinGo releases an activated rejoiner into the step loop; its
	// body is the coordinator's opaque go payload.
	tagRejoinGo
)

// NumTags is the number of public message kinds (internal framing tags
// excluded) — the size of per-tag stat arrays.
const NumTags = int(TagControl) + 1

// Message is one logical message between ranks. Payload stays in-process
// on the inproc backend (no serialization); on the TCP backend it must be
// a codec-known type ([]*dv.Delta, []change.Event or []byte) and is
// encoded into the frame body, and the decoded payload a receiver gets
// owns its memory. Bytes is the accounted wire size; for delta payloads it
// equals the sum of the deltas' WireBytes, which the TCP frame body
// realizes exactly.
type Message struct {
	From, To int
	Tag      Tag
	Bytes    int
	Payload  interface{}
}

// ErrPayloadKind reports a message whose payload is not the kind its reader
// needs: a control payload that is not a []byte of the size it needs, or a
// delta, event or row payload of another type. On the wire the payload kind
// is independent of the tag, so a well-framed message can carry any.
var ErrPayloadKind = errors.New("transport: malformed payload")

// payloadAs returns the message's payload as a T; otherwise an error
// wrapping ErrPayloadKind that names the sender and what was wanted.
func payloadAs[T any](m Message, want string) (T, error) {
	v, ok := m.Payload.(T)
	if !ok {
		return v, fmt.Errorf("%w from rank %d: %T with tag %d, want %s",
			ErrPayloadKind, m.From, m.Payload, m.Tag, want)
	}
	return v, nil
}

// Deltas returns the message's delta-list payload; otherwise an error
// wrapping ErrPayloadKind that names the sender. It is the one checked
// reader for delta lists: boundary deltas and the rows a gather ships.
func (m Message) Deltas() ([]*dv.Delta, error) { return payloadAs[[]*dv.Delta](m, "a delta list") }

// Events returns the message's event-list payload (a vertex batch under
// TagNewVertexRow); otherwise an error wrapping ErrPayloadKind that names
// the sender.
func (m Message) Events() ([]change.Event, error) {
	return payloadAs[[]change.Event](m, "an event list")
}

// Row returns the message's DV row payload (a row migrated under
// TagMigrateRows, in process only); otherwise an error wrapping
// ErrPayloadKind that names the sender.
func (m Message) Row() (*dv.Row, error) { return payloadAs[*dv.Row](m, "a DV row") }

// Control returns the message's []byte payload if it holds at least n
// bytes; otherwise an error wrapping ErrPayloadKind that names the sender.
// It is the one checked reader for control payloads, which arrive from
// other processes and must not be trusted to be well formed.
func (m Message) Control(n int) ([]byte, error) {
	b, ok := m.Payload.([]byte)
	if !ok || len(b) < n {
		return nil, fmt.Errorf("%w from rank %d: %T of %d bytes, want >= %d bytes",
			ErrPayloadKind, m.From, m.Payload, len(b), n)
	}
	return b, nil
}

// Fate is the outcome the fault layer assigns to one delivery attempt of
// a message on a lossy link.
type Fate uint8

const (
	// FateDeliver delivers the attempt normally.
	FateDeliver Fate = iota
	// FateDrop loses the attempt in the network; the sender's ack timeout
	// triggers a retransmission (bounded by ResendBudget).
	FateDrop
	// FateDuplicate delivers the message twice (a spurious retransmission
	// after a lost ack). Receivers must be idempotent.
	FateDuplicate
	// FateDelay holds the message in flight; it is delivered at the start
	// of the next Exchange instead of this one.
	FateDelay
	// FateCorrupt flips bits on the wire; the receiver's frame CRC detects
	// it and nacks, triggering a retransmission like FateDrop.
	FateCorrupt
)

// FaultHook is consulted by the FaultPlane for every delivery attempt of a
// boundary-DV message to another rank (the plane alone decides which
// messages are faulted), making the link lossy in a reproducible way.
// Implementations must be deterministic functions of their arguments; the
// plane calls them under its lock, so they must neither block nor call
// back into the plane. internal/fault provides the seeded reference
// implementation.
type FaultHook interface {
	// Fate returns the outcome of delivery attempt `attempt` (0-based) of
	// the k-th message from rank `from` to `to` within exchange number xid.
	Fate(xid int64, from, to, k, attempt int) Fate
	// Down reports whether rank p is currently crashed. Boundary-DV
	// messages addressed to a down rank are dropped without retry.
	Down(p int) bool
	// ResendBudget is the maximum number of delivery attempts per message
	// (>= 1); exhausting it abandons the message, reported via TakeFailed.
	ResendBudget() int
}

// Transport is one rank's attachment to the message plane. All collective
// calls (Exchange, Broadcast, Barrier) must be made by every rank in the
// same order — the bulk-synchronous discipline of the recombination loop.
// Every backend also runs the liveness plane (failure detection and
// rejoin, liveness.go) and the step-ID plane (steps.go).
type Transport interface {
	// Rank is this endpoint's rank in [0, Size).
	Rank() int
	// Size is the number of ranks on the plane.
	Size() int
	// Exchange performs one bulk-synchronous communication step: out holds
	// this rank's outgoing messages (To must be a valid rank; From is
	// overwritten). It returns the messages addressed to this rank, in
	// deterministic (sender rank, send order) order, once every rank's
	// traffic for the step has arrived.
	Exchange(out []Message) ([]Message, error)
	// Broadcast delivers root's message to every other rank (collective:
	// non-roots pass their own rank in msg.From slot-free and receive the
	// copy, nil at the root). It rides the reliable plane.
	Broadcast(root int, msg Message) (*Message, error)
	// Barrier blocks until every rank has arrived.
	Barrier() error
	// TakeFailed returns the messages the plane could not deliver since
	// the last call — abandoned by the fault layer's resend budget or lost
	// to a real network failure after reconnect attempts — and clears the
	// list. The sender re-marks the affected rows for re-shipping.
	TakeFailed() []Message
	// InFlight reports messages accepted but not yet delivered (held by
	// the fault layer's delay fate). The engine must not declare
	// convergence while messages are in flight.
	InFlight() int
	// Stats returns a snapshot of the transport counters.
	Stats() Stats
	// Close tears the endpoint down. Collective calls after Close error.
	Close() error

	// TakeDown returns the peers newly marked down (heartbeat timeout,
	// reconnect budget exhausted, or an in-process abort) since the last
	// call and clears the list.
	TakeDown() []int
	// PeerDown reports whether rank q is currently considered down
	// (including pending-rejoin: a pending peer carries no traffic yet).
	PeerDown(q int) bool
	// PendingRejoin reports whether rank q has completed the rejoin
	// handshake and waits for activation.
	PendingRejoin(q int) bool
	// Activate integrates a pending peer into the plane at the current
	// exchange boundary. All live ranks must call it at the same boundary
	// (the runner's decision broadcast coordinates this). Idempotent.
	Activate(q int)
	// HeartbeatAge is the time since rank q was last heard from; zero for
	// self or when unknown.
	HeartbeatAge(q int) time.Duration
	// SendRejoinGo releases a pending-activated rejoiner into the step
	// loop, handing it the opaque go payload (the runner's state digest:
	// partition checksum plus the dynamic-event journal). Only the
	// coordinating rank calls it, after Activate.
	SendRejoinGo(q int, payload []byte) error
	// AwaitRejoinGo blocks an endpoint created by RejoinTCP or
	// RejoinInproc until the coordinator's go signal arrives and returns
	// its payload; any other endpoint errors at once.
	AwaitRejoinGo(timeout time.Duration) ([]byte, error)

	// MarkStep records this rank's current RC step; the backend gossips it
	// to peers on its own schedule (TCP: the next heartbeat round).
	MarkStep(step int64)
	// PeerStep returns the most recent step heard from rank q (own step
	// for q == Rank(); 0 before anything was heard).
	PeerStep(q int) int64
}

// Stats aggregates transport counters. All fields are cumulative.
type Stats struct {
	MessagesSent  int64
	MessagesRecv  int64
	BytesSent     int64
	BytesRecv     int64
	FramesSent    int64 // wire frames, incl. step-end markers and heartbeats (TCP only)
	FramesRecv    int64
	Exchanges     int64
	Broadcasts    int64
	Barriers      int64
	Reconnects    int64 // links re-established after a failure (TCP only)
	CRCErrors     int64 // frames rejected by the receiver's CRC
	SendFailures  int64 // messages abandoned after reconnect/resend budgets
	RetryAttempts int64 // redial/rewrite attempts taken by the backoff loops (TCP only)
}

// counters is the atomic backing for Stats shared by the backends.
type counters struct {
	msgsSent, msgsRecv                  atomic.Int64
	bytesSent, bytesRecv                atomic.Int64
	framesSent, framesRecv              atomic.Int64
	exchanges, broadcasts, barriers     atomic.Int64
	reconnects, crcErrors, sendFailures atomic.Int64
	retryAttempts                       atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		MessagesSent:  c.msgsSent.Load(),
		MessagesRecv:  c.msgsRecv.Load(),
		BytesSent:     c.bytesSent.Load(),
		BytesRecv:     c.bytesRecv.Load(),
		FramesSent:    c.framesSent.Load(),
		FramesRecv:    c.framesRecv.Load(),
		Exchanges:     c.exchanges.Load(),
		Broadcasts:    c.broadcasts.Load(),
		Barriers:      c.barriers.Load(),
		Reconnects:    c.reconnects.Load(),
		CRCErrors:     c.crcErrors.Load(),
		SendFailures:  c.sendFailures.Load(),
		RetryAttempts: c.retryAttempts.Load(),
	}
}

// validDest checks a message destination against the plane size.
func validDest(msg Message, size int) error {
	if msg.To < 0 || msg.To >= size {
		return fmt.Errorf("transport: message to invalid rank %d (size %d)", msg.To, size)
	}
	return nil
}

// broadcastVia implements the Broadcast collective over Exchange: the root
// sends one copy per peer, everyone else sends nothing, and non-roots
// return the (single) received copy. Backends share it so broadcast
// ordering and failure semantics follow Exchange exactly.
func broadcastVia(t Transport, root int, msg Message) (*Message, error) {
	if root < 0 || root >= t.Size() {
		return nil, fmt.Errorf("transport: broadcast from invalid rank %d", root)
	}
	var out []Message
	if t.Rank() == root {
		for q := 0; q < t.Size(); q++ {
			if q == root {
				continue
			}
			mq := msg
			mq.From, mq.To = root, q
			out = append(out, mq)
		}
	}
	in, err := t.Exchange(out)
	if err != nil {
		return nil, err
	}
	if t.Rank() == root {
		return nil, nil
	}
	for i := range in {
		if in[i].From == root {
			return &in[i], nil
		}
	}
	return nil, fmt.Errorf("transport: rank %d missed broadcast from %d", t.Rank(), root)
}
