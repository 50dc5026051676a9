package h2

import "sync"

// Buffer recycling for the frame codec and received bodies. Connections
// churn constantly at crawl scale, and every connection owns a Framer
// read buffer and an asyncWriter queue; recycling them through
// power-of-two size classes keeps steady-state frame I/O off the
// allocator entirely.
const (
	bufPoolMinShift = 10 // smallest pooled cap: 1 KiB
	bufPoolMaxShift = 20 // largest pooled cap: 1 MiB
	bufPoolClasses  = bufPoolMaxShift - bufPoolMinShift + 1
)

var (
	bufPools [bufPoolClasses]sync.Pool
	// boxPool holds emptied *[]byte boxes: getBuf returns each box it
	// unwraps and putBuf refills one, so recycling allocates nothing.
	boxPool sync.Pool
)

// getBuf returns a zero-length buffer with cap ≥ n, recycled when a
// suitable one is pooled. Requests beyond the largest class fall back to
// a plain allocation.
func getBuf(n int) []byte {
	if n > 1<<bufPoolMaxShift {
		return make([]byte, 0, n)
	}
	c := 0
	for 1<<(bufPoolMinShift+c) < n {
		c++
	}
	if v := bufPools[c].Get(); v != nil {
		box := v.(*[]byte)
		b := (*box)[:0]
		*box = nil
		boxPool.Put(box)
		return b
	}
	return make([]byte, 0, 1<<(bufPoolMinShift+c))
}

// putBuf recycles b. The buffer lands in the largest class whose size it
// can satisfy, so a later getBuf from that class always has enough cap;
// buffers outside the pooled range are dropped for the GC.
func putBuf(b []byte) {
	c := cap(b)
	if c < 1<<bufPoolMinShift || c > 1<<bufPoolMaxShift {
		return
	}
	cls := 0
	for cls+1 < bufPoolClasses && 1<<(bufPoolMinShift+cls+1) <= c {
		cls++
	}
	box, _ := boxPool.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	bufPools[cls].Put(box)
}

// appendBody appends a DATA payload p to a received body (a client's
// Response.Body, a server's Request.Body) and reports whether the body
// is now staging storage from getBuf; only the read loop calls it. The
// body is staged in pooled storage that grows with the bytes received,
// never a declared length, and past the largest class in plain doubling
// memory, which finishBody hands over as is: a final copy there would
// cost more than it saves.
func appendBody(body []byte, staged bool, p []byte) ([]byte, bool) {
	need := len(body) + len(p)
	var nb []byte
	pooled := false
	switch {
	case need <= cap(body):
		return append(body, p...), staged
	case need <= 1<<bufPoolMaxShift:
		nb, pooled = getBuf(need), true
	default:
		nb = make([]byte, 0, max(2*cap(body), need))
	}
	nb = append(append(nb, body...), p...)
	if staged {
		putBuf(body)
	}
	return nb, pooled
}

// finishBody hands a received body over at END_STREAM. Staging storage
// is copied once into a slice of the body's length, the caller's to
// keep, and goes straight back to the pool, so an idle connection pins
// none of it.
func finishBody(body []byte, staged bool) []byte {
	if !staged {
		return body
	}
	b := make([]byte, len(body))
	copy(b, body)
	putBuf(body)
	return b
}
