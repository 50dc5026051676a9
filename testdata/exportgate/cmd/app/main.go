// Command app is the fixture's user of package obs.
package main

import (
	"encoding/json"
	"fmt"
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
	cfg := o.Config{Name: "fixture"}
	cfg.Label = "unread"
	out, _ := json.Marshal(o.Snapshot{Total: n.Load()})
	fmt.Println(o.Describe(cfg), string(out))
}
