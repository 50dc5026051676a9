//go:build !race

package conformance_test

// replaySites is cmd/replaycheck's default -sites: the plain run proves
// byte-identity on the corpus the replay golden pins.
const replaySites = 400
