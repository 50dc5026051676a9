//go:build !race

package h2

// racePoolSlack is zero outside the race detector: every pooled buffer
// crypto/tls puts back is reused.
const racePoolSlack = 0
