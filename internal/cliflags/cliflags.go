// Package cliflags centralizes the flag plumbing the binaries were
// each duplicating — the deterministic -seed, the -workers goroutine
// count, the -out destination with its "-"-for-stdout convention, the
// five warm-replay flags of report and cdnsim — so every command
// describes, parses and validates them identically. Commands register
// only the flags they support; defaults stay per-command.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"

	"respectorigin/internal/cache"
	"respectorigin/internal/core"
)

// Seed registers -seed: the deterministic generator seed every
// reproducible run hangs off.
func Seed(def int64) *int64 {
	return flag.Int64("seed", def, "deterministic seed (same seed and flags => byte-identical output)")
}

// Workers registers -workers. Every consumer normalizes via
// internal/parallel, so values ≤ 0 select all cores and any count
// yields identical output.
func Workers(def int) *int {
	return flag.Int("workers", def, "worker goroutines (<=0 selects all cores; output is identical for any count)")
}

// Sites registers -sites, the corpus size.
func Sites(def int) *int {
	return flag.Int("sites", def, "number of ranked sites to attempt")
}

// Out registers -out; what names the artifact in the usage line.
func Out(def, what string) *string {
	return flag.String("out", def, "write "+what+" to this file (- for stdout)")
}

// Output is a resolved -out destination.
type Output struct {
	io.Writer
	file *os.File
}

// Close closes the underlying file and returns its error — on a full
// disk the close is where truncation surfaces, so callers must check
// it. Closing a stdout Output is a no-op.
func (o *Output) Close() error {
	if o.file == nil {
		return nil
	}
	return o.file.Close()
}

// OpenOutput resolves an -out value: "-" (or empty) is stdout,
// anything else is created fresh.
func OpenOutput(path string) (*Output, error) {
	if path == "" || path == "-" {
		return &Output{Writer: os.Stdout}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Output{Writer: f, file: f}, nil
}

// WriteOutput writes an -out destination with write, then closes it,
// returning the first error of the two.
func WriteOutput(path string, write func(io.Writer) error) error {
	o, err := OpenOutput(path)
	if err != nil {
		return err
	}
	err = write(o)
	if cerr := o.Close(); err == nil {
		err = cerr
	}
	return err
}

// WarmReplay is the warm/cold replay selection of report and cdnsim:
// -cache, -revisits, -ticket-lifetime, -proto, -proto-sweep.
// Proto and Opts hold values only after Resolve.
type WarmReplay struct {
	Cache      bool          // -cache: print the warm/cold savings table
	ProtoSweep bool          // -proto-sweep: print it per protocol
	Revisits   int           // -revisits: visits per page or zone, at least 1
	Proto      core.Protocol // -proto, parsed
	Opts       cache.Options // -ticket-lifetime as the cache takes it

	protoName  string
	ticketLife int
}

// RegisterWarmReplay registers the five warm-replay flags; revisits is
// the command's default for -revisits.
func RegisterWarmReplay(revisits int) *WarmReplay {
	w := &WarmReplay{}
	flag.BoolVar(&w.Cache, "cache", false, "replay against a warm-path client cache and print the warm/cold savings table")
	flag.IntVar(&w.Revisits, "revisits", revisits, "visits per page or zone in the warm/cold replay (with -cache or -proto-sweep; at least 1)")
	flag.IntVar(&w.ticketLife, "ticket-lifetime", cache.DefaultTicketLifetimeSeconds, "TLS session-ticket lifetime in seconds (0 disables resumption)")
	flag.StringVar(&w.protoName, "proto", "h2", "application protocol for the -cache replay (h1, h2, h3)")
	flag.BoolVar(&w.ProtoSweep, "proto-sweep", false, "replay under every protocol and print the per-protocol (h1/h2/h3) savings decomposition")
	return w
}

// Resolve validates the parsed flags and fills Proto and Opts. Like a
// flag the flag package cannot parse, a bad value ends cmd with exit
// status 2; commands call it straight after flag.Parse, before they
// open any output.
func (w *WarmReplay) Resolve(cmd string) {
	if err := w.resolve(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		os.Exit(2)
	}
}

func (w *WarmReplay) resolve() error {
	proto, err := core.ParseProtocol(w.protoName)
	if err != nil {
		return err
	}
	if w.Revisits < 1 {
		return fmt.Errorf("-revisits %d: a replay needs at least one visit", w.Revisits)
	}
	w.Proto = proto
	w.Opts = cache.Options{TicketLifetimeSeconds: w.ticketLife}
	if w.ticketLife == 0 {
		w.Opts.TicketLifetimeSeconds = cache.TicketsDisabled
	}
	return nil
}

// Label names what a savings table covers: what, with the protocol
// appended unless it is the h2 default.
func (w *WarmReplay) Label(what string) string {
	if w.Proto != core.ProtoH2 {
		return what + ", " + w.Proto.String()
	}
	return what
}
