//go:build race

package conformance_test

// replaySites: under the race detector the determinism replay looks for
// data races, which a smaller corpus exercises as well.
const replaySites = 120
