package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
)

// prefixDomain separates warm-prefix hashes from result hashes: a prefix
// hash can never collide with the Hash of any spec, so the name a
// snapshot blob is sealed against never names a result. Bump the suffix
// together with snapshot.Version when the blob layout changes.
const prefixDomain = "bimodal-warm-prefix/v5\n"

// prefixEncoder is PrefixHash's reusable encoding buffer: the domain, then
// the prefix spec's JSON as json.Marshal writes it, which an Encoder ends
// with a newline.
type prefixEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var prefixEncoders = sync.Pool{New: func() any {
	e := new(prefixEncoder)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// PrefixHash returns the identity of the spec's warmup prefix: the hash
// of the canonical spec with every parameter that only affects the
// measured window removed. Two cells with equal prefix hashes reach
// byte-identical simulator states at the end of warmup, so one cell's
// warm snapshot (sealed against this hash) restores into the other —
// the key a sweep groups its store misses by for a shared warmup
// (internal/service).
//
// ok is false when the spec has no reusable warmup prefix: warmup is
// disabled.
func (s RunSpec) PrefixHash() (string, bool, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", false, err
	}
	if c.Options.WarmupPerCore <= 0 {
		return "", false, nil
	}
	// Neither the measured quota nor ANTT, which adds standalone runs after
	// the measured window, shapes warmup: every scheme builds from the
	// warmup quota (sim.FactoryForSpec scales the Bi-Modal family's core
	// parameters to it), and Options.Canonical already resolved a
	// defaulted warmup against the measured quota. omitempty drops the
	// zeros, keeping the encoding canonical.
	c.Options.AccessesPerCore = 0
	c.Options.ANTT = false
	e := prefixEncoders.Get().(*prefixEncoder)
	defer prefixEncoders.Put(e)
	e.buf.Reset()
	e.buf.WriteString(prefixDomain)
	if err := e.enc.Encode(c); err != nil {
		return "", false, fmt.Errorf("spec: encoding warm prefix: %w", err)
	}
	b := e.buf.Bytes()
	return hashString(sha256.Sum256(b[:len(b)-1])), true, nil
}
