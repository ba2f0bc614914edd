package service

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"sync"

	"bimodal/internal/sim"
	"bimodal/internal/spec"
)

// runPool recycles fully-constructed simulators across the cells this
// process runs — service sweep workers and cluster workers all route
// through it. Pool reuse is bounded and keyed per geometry (scheme +
// params + mix + run shape, seed excluded), and a pooled run is
// byte-identical to a fresh one (internal/sim's golden tests), so the pool
// can never change result bytes — only construction cost.
var runPool = sim.NewRunPool(0)

// poolSchemeKey derives the RunPool scheme key for a canonical run spec.
// The scheme name alone is not enough: spec params shape the built scheme
// (geometry and option overrides) beyond what sim.Options capture, and two
// factories must never share a pool key unless they build identically.
// Params are canonical (sorted, minimal), so the key is deterministic.
func poolSchemeKey(rs spec.RunSpec) string {
	if len(rs.Params) == 0 {
		return rs.Scheme
	}
	keys := make([]string, 0, len(rs.Params))
	for k := range rs.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	b = append(b, rs.Scheme...)
	for _, k := range keys {
		b = append(b, '?')
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendInt(b, rs.Params[k], 10)
	}
	return string(b)
}

// encBufs backs marshalResultJSON with reusable encoder buffers: result
// payloads are marshaled on every cell completion, and growing a fresh
// buffer through json.Marshal for each one dominated the encoding cost of
// large sweeps.
var encBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// marshalResultJSON encodes v through a pooled encoder buffer and returns
// a right-sized copy the caller owns. The bytes are identical to
// json.Marshal(v) — same escaping, no trailing newline — which the result
// determinism contract (and the committed goldens) depends on.
func marshalResultJSON(v any) ([]byte, error) {
	buf := encBufs.Get().(*bytes.Buffer)
	defer encBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	b = b[:len(b)-1] // Encode appends '\n'; Marshal does not
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}
