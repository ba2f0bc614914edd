package service

import (
	"bytes"
	"encoding/json"
	"sync"

	"bimodal/internal/sim"
)

// runPool recycles fully-constructed simulators across the cells this
// process runs — service sweep workers and cluster workers all route
// through it. Pool reuse is bounded and keyed per geometry (scheme +
// params + mix + run shape, seed excluded), and a pooled run is
// byte-identical to a fresh one (internal/sim's golden tests), so the pool
// can never change result bytes — only construction cost.
var runPool = sim.NewRunPool(0)

// encBufs backs marshalCell with reusable encoder buffers: result
// payloads are marshaled on every cell completion, and growing a fresh
// buffer through json.Marshal for each one dominated the encoding cost of
// large sweeps.
var encBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// marshalCell encodes a cell's result bytes, the compact CellResult JSON
// every node produces identically for its spec, through a pooled encoder
// buffer and returns a right-sized copy the caller owns. The bytes are
// identical to json.Marshal — same escaping, no trailing newline — which
// the result determinism contract (and the committed goldens) depends on.
func marshalCell(scheme string, res sim.RunResult) ([]byte, error) {
	buf := encBufs.Get().(*bytes.Buffer)
	defer encBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(NewCellResult(scheme, res)); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	b = b[:len(b)-1] // Encode appends '\n'; Marshal does not
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}
