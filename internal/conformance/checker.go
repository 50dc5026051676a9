// Package conformance provides protocol-correctness tooling for the
// ORIGIN stack: an RFC 9113 flow-control invariant checker that plugs
// into the h2 layer's FlowHook, and a determinism differential checker
// that replays a seeded crawl at several worker counts and diffs every
// artifact byte-for-byte.
//
// The package deliberately does not import internal/h2. The hook
// interface there uses only built-in types, so FlowChecker satisfies it
// structurally — which lets h2's own (package-internal) tests import
// this package without an import cycle.
package conformance

import (
	"fmt"
	"sync"
)

// RFC 9113 flow-control constants, mirrored here rather than imported
// (see the package comment for why).
const (
	initialWindowSize = 65535
	maxWindow         = 1<<31 - 1
)

// streamLedger mirrors one stream's send-side accounting.
type streamLedger struct {
	window  int64 // mirrored send window
	taken   int64 // cumulative bytes reserved via take
	written int64 // cumulative DATA payload bytes reported written
}

// FlowChecker is a FlowHook implementation that mirrors an endpoint's
// flow-control state and records every invariant violation it observes:
//
//   - take must reserve at least 1 byte and never more than either the
//     stream or the connection window held (RFC 9113 §6.9.1);
//   - accepted WINDOW_UPDATE and SETTINGS_INITIAL_WINDOW_SIZE changes
//     must keep every window at or below 2^31-1 (§6.9.1);
//   - DATA bytes written never exceed bytes reserved, per stream and in
//     total (byte conservation, checked continuously);
//   - the receive window never goes negative and the available+unsent
//     split always sums to the initial window.
//
// Use one FlowChecker per connection endpoint: the ledger models a
// single connection window, so sharing one checker across connections
// conflates their accounting.
//
// All methods are safe for concurrent use.
type FlowChecker struct {
	name string

	mu         sync.Mutex
	conn       int64 // mirrored connection send window
	connTaken  int64
	connData   int64
	initial    int64
	streams    map[uint32]*streamLedger
	closed     map[uint32]*streamLedger // retained for conservation checks
	recvAvail  int64
	recvUnsent int64

	wentNegative bool
	violations   []string
}

// NewFlowChecker returns a checker with the RFC-default 65535-byte
// windows. The name prefixes every violation message, so a test driving
// both endpoints can tell client from server.
func NewFlowChecker(name string) *FlowChecker {
	return &FlowChecker{
		name:      name,
		conn:      initialWindowSize,
		initial:   initialWindowSize,
		streams:   make(map[uint32]*streamLedger),
		closed:    make(map[uint32]*streamLedger),
		recvAvail: initialWindowSize,
	}
}

func (c *FlowChecker) violatef(format string, args ...any) {
	c.violations = append(c.violations, c.name+": "+fmt.Sprintf(format, args...))
}

// FlowEvent implements the h2 FlowHook interface.
func (c *FlowChecker) FlowEvent(op string, streamID uint32, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op {
	case "open":
		if _, dup := c.streams[streamID]; dup {
			c.violatef("stream %d opened twice", streamID)
		}
		if n != c.initial {
			c.violatef("stream %d opened with window %d, initial is %d", streamID, n, c.initial)
		}
		c.streams[streamID] = &streamLedger{window: n}

	case "close":
		st, ok := c.streams[streamID]
		if !ok {
			c.violatef("close of unknown stream %d", streamID)
			return
		}
		c.closed[streamID] = st
		delete(c.streams, streamID)

	case "take":
		st, ok := c.streams[streamID]
		if !ok {
			c.violatef("take of %d bytes on unknown stream %d", n, streamID)
			return
		}
		if n < 1 {
			c.violatef("take reserved %d bytes on stream %d; must be at least 1", n, streamID)
		}
		if n > st.window {
			c.violatef("take of %d exceeds stream %d window %d", n, streamID, st.window)
		}
		if n > c.conn {
			c.violatef("take of %d on stream %d exceeds connection window %d", n, streamID, c.conn)
		}
		st.window -= n
		st.taken += n
		c.conn -= n
		c.connTaken += n

	case "add":
		if streamID == 0 {
			if c.conn+n > maxWindow {
				c.violatef("accepted WINDOW_UPDATE drives connection window to %d, above 2^31-1", c.conn+n)
			}
			c.conn += n
			return
		}
		st, ok := c.streams[streamID]
		if !ok {
			// WINDOW_UPDATE racing stream closure is legal and ignored by
			// the endpoint; the hook should not have reported it applied.
			c.violatef("WINDOW_UPDATE applied to unknown stream %d", streamID)
			return
		}
		if st.window+n > maxWindow {
			c.violatef("accepted WINDOW_UPDATE drives stream %d window to %d, above 2^31-1", streamID, st.window+n)
		}
		st.window += n

	case "set_initial":
		if n > maxWindow {
			c.violatef("accepted SETTINGS_INITIAL_WINDOW_SIZE %d above 2^31-1", n)
		}
		delta := n - c.initial
		c.initial = n
		for id, st := range c.streams {
			st.window += delta
			if st.window > maxWindow {
				c.violatef("initial-window change drives stream %d window to %d, above 2^31-1", id, st.window)
			}
			if st.window < 0 {
				// Legal per RFC 9113 §6.9.2 — recorded, not a violation.
				c.wentNegative = true
			}
		}

	case "data":
		st := c.streams[streamID]
		if st == nil {
			st = c.closed[streamID]
		}
		if st == nil {
			c.violatef("DATA of %d bytes on unknown stream %d", n, streamID)
			return
		}
		st.written += n
		c.connData += n
		if st.written > st.taken {
			c.violatef("stream %d wrote %d DATA bytes but reserved only %d", streamID, st.written, st.taken)
		}
		if c.connData > c.connTaken {
			c.violatef("connection wrote %d DATA bytes but reserved only %d", c.connData, c.connTaken)
		}

	case "recv":
		c.recvAvail -= n
		c.recvUnsent += n
		if c.recvAvail < 0 {
			c.violatef("receive window driven to %d by %d accepted DATA bytes", c.recvAvail, n)
		}

	case "recv_replenish":
		c.recvUnsent -= n
		c.recvAvail += n
		if c.recvUnsent < 0 {
			c.violatef("replenished %d bytes more than were consumed", -c.recvUnsent)
		}
		if c.recvAvail > maxWindow {
			c.violatef("replenish drives receive window to %d, above 2^31-1", c.recvAvail)
		}

	default:
		c.violatef("unknown flow event %q (stream %d, n %d)", op, streamID, n)
	}
}

// Check returns the violations of the continuously-enforceable
// invariants observed so far (nil when the endpoint behaved). It is safe
// to call under fault injection: aborted streams legitimately write
// fewer DATA bytes than they reserved, which Check does not flag.
func (c *FlowChecker) Check() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recvAvail+c.recvUnsent != initialWindowSize {
		c.violatef("receive ledger out of balance: avail %d + unsent %d != %d",
			c.recvAvail, c.recvUnsent, int64(initialWindowSize))
	}
	return append([]string(nil), c.violations...)
}

// CheckConservation additionally demands strict byte conservation — every
// reserved byte was written — which holds only for runs with no aborted
// streams. Call it in clean (non-chaos) tests after all streams closed.
func (c *FlowChecker) CheckConservation() []string {
	out := c.Check()
	c.mu.Lock()
	defer c.mu.Unlock()
	check := func(id uint32, st *streamLedger) {
		if st.taken != st.written {
			out = append(out, fmt.Sprintf("%s: stream %d reserved %d bytes but wrote %d",
				c.name, id, st.taken, st.written))
		}
	}
	for id, st := range c.streams {
		check(id, st)
	}
	for id, st := range c.closed {
		check(id, st)
	}
	if c.connTaken != c.connData {
		out = append(out, fmt.Sprintf("%s: connection reserved %d bytes but wrote %d",
			c.name, c.connTaken, c.connData))
	}
	return out
}

// WentNegative reports whether any stream window was legally driven
// negative by a SETTINGS_INITIAL_WINDOW_SIZE shrink (RFC 9113 §6.9.2) —
// useful for tests asserting that the negative-window path was actually
// exercised.
func (c *FlowChecker) WentNegative() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wentNegative
}
