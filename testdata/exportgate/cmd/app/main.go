// Command app is the fixture's user of package obs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"strconv"
	"sync/atomic"

	o "exportgate/internal/obs"
)

// thing holds a recorder outside the one idiom, behind an aliased
// import: the recorder gate reports it.
type thing struct {
	sink o.Recorder
}

func main() {
	var n atomic.Int64
	n.Store(1)
	th := thing{sink: o.NewStore()}
	th.sink.Count("runs", n.Load())
	meta := o.Meta{Name: "fixture"}
	meta.Label = "unread"
	out, _ := json.Marshal(o.Snapshot{Total: n.Load()})
	fmt.Println(o.Describe(meta), string(out))

	opts := o.DefaultOptions()
	flag.IntVar(&opts.Workers, "workers", 1, "workers")
	flag.Parse()
	opts.Rate, _ = strconv.ParseFloat(flag.Arg(0), 64)
	fmt.Println(o.Run(opts), o.Run(o.Options{Depth: 2}))
}
