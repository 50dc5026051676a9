//go:build race

package h2

// racePoolSlack: under the race detector sync.Pool drops a share of what
// is put back, at random, so crypto/tls reallocates record buffers it
// would otherwise reuse (one to three objects a request, measured).
const racePoolSlack = 3
