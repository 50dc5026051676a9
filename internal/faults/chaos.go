package faults

import (
	"net"
	"sync"
	"time"
)

// A ChaosConn wraps a live net.Conn with plan-driven transport faults
// for the live ORIGIN stack (cmd/origincurl -chaos):
//
//   - KindReset: the connection is torn down after a seeded byte budget,
//     modelling a TCP RST mid-stream (a small budget lands inside the
//     TLS handshake, reproducing handshake failures too);
//   - LossPct: every read is delayed by an RTO-like penalty with the
//     plan's loss probability, inflating observed latency the same way
//     InflationFactor inflates the simulator's cost model.
//
// The fault schedule is drawn from the injector at construction, so two
// connections built from injectors with the same plan and seed fail at
// the same byte offsets.
type ChaosConn struct {
	net.Conn

	mu     sync.Mutex
	budget int64 // bytes (both directions) until an injected reset; <0 = never
	delay  time.Duration
}

// NewChaosConn wraps nc. The reset decision and its byte budget are
// sampled immediately from inj's stream.
func NewChaosConn(nc net.Conn, inj *Injector) *ChaosConn {
	c := &ChaosConn{Conn: nc, budget: -1}
	if inj.Hit(KindReset) {
		// Somewhere between mid-handshake and a few response bodies.
		c.budget = int64(512 + inj.intn(64<<10))
	}
	if loss := inj.Plan().LossPct; loss > 0 {
		// Per-read RTO penalty scaled by the loss rate; deterministic in
		// duration, applied probabilistically per read below.
		c.delay = time.Duration(loss * float64(3*time.Millisecond))
	}
	return c
}

// Budget reports the remaining bytes until the injected reset fires;
// negative means no reset is scheduled. It exists so tests can pin the
// seeded schedule.
func (c *ChaosConn) Budget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget
}

// spend consumes n bytes of the reset budget, reporting whether the
// injected reset has fired.
func (c *ChaosConn) spend(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget < 0 {
		return false
	}
	c.budget -= int64(n)
	return c.budget <= 0
}

func (c *ChaosConn) Read(p []byte) (int, error) {
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	n, err := c.Conn.Read(p)
	if c.spend(n) {
		_ = c.Conn.Close()
		return n, errConnReset
	}
	return n, err
}

func (c *ChaosConn) Write(p []byte) (int, error) {
	if c.spend(len(p)) {
		_ = c.Conn.Close()
		return 0, errConnReset
	}
	return c.Conn.Write(p)
}
