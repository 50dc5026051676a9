package cliflags

import (
	"os"
	"path/filepath"
	"testing"

	"respectorigin/internal/cache"
	"respectorigin/internal/core"
)

func TestOpenOutputStdout(t *testing.T) {
	for _, path := range []string{"", "-"} {
		o, err := OpenOutput(path)
		if err != nil {
			t.Fatalf("OpenOutput(%q): %v", path, err)
		}
		if !o.stdout() {
			t.Fatalf("OpenOutput(%q) did not resolve to stdout", path)
		}
		if err := o.Close(); err != nil {
			t.Fatalf("closing stdout output: %v", err)
		}
	}
}

func TestOpenOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.out")
	o, err := OpenOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	if o.stdout() {
		t.Fatal("file output reported as stdout")
	}
	if _, err := o.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil || string(raw) != "hi" {
		t.Fatalf("read back %q, %v", raw, err)
	}
	// Double close surfaces the file's error rather than hiding it.
	if err := o.Close(); err == nil {
		t.Fatal("second Close returned nil")
	}
}

func TestOpenOutputBadPath(t *testing.T) {
	if _, err := OpenOutput(filepath.Join(t.TempDir(), "no", "such", "dir", "x")); err == nil {
		t.Fatal("OpenOutput into a missing directory succeeded")
	}
}

func TestWarmReplayResolve(t *testing.T) {
	for _, c := range []struct {
		name       string
		in         WarmReplay
		wantErr    bool
		wantProto  core.Protocol
		wantTicket int
	}{
		{"defaults", WarmReplay{Revisits: 1, protoName: "h2", ticketLife: 7200}, false, core.ProtoH2, 7200},
		{"lifetime 0 disables tickets", WarmReplay{Revisits: 2, protoName: "h3"}, false, core.ProtoH3, cache.TicketsDisabled},
		{"no visits", WarmReplay{Revisits: 0, protoName: "h2"}, true, 0, 0},
		{"negative visits", WarmReplay{Revisits: -1, protoName: "h2"}, true, 0, 0},
		{"unknown protocol", WarmReplay{Revisits: 1, protoName: "h4"}, true, 0, 0},
	} {
		w := c.in
		err := w.resolve()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: resolve() = %v, want error %v", c.name, err, c.wantErr)
		}
		if err == nil && (w.Proto != c.wantProto || w.Opts.TicketLifetimeSeconds != c.wantTicket) {
			t.Errorf("%s: proto %v lifetime %d, want %v %d", c.name, w.Proto, w.Opts.TicketLifetimeSeconds, c.wantProto, c.wantTicket)
		}
	}
}

// stdout reports whether the destination is standard output.
func (o *Output) stdout() bool { return o.file == nil }
