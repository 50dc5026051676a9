// Package quic is the HTTP/3 connection establishment the benchmark's
// QUIC probe times. The round-trip table it prices against lives in
// netsim.Setup and the warm-state decision in cache.Handshake; nothing
// but that probe reaches this package.
package quic

import "respectorigin/internal/cache"

// Establish settles one fresh h3 connection to host against the
// warm-path cache: cache.Handshake under ProtoWireH3, which redeems and
// mints the protocol-keyed session ticket and address-validation token
// for the certificate's coverage. A nil cache is the cold path.
func Establish(c *cache.Cache, host string, sans []string) cache.Handshake {
	return c.Handshake(host, "", sans, cache.ProtoWireH3)
}
