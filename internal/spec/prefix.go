package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// prefixDomain separates warm-prefix hashes from result hashes: a prefix
// hash can never collide with the Hash of any spec, so the name a
// snapshot blob is sealed against never names a result. Bump the suffix
// together with snapshot.Version when the blob layout changes.
const prefixDomain = "bimodal-warm-prefix/v4\n"

// PrefixHash returns the identity of the spec's warmup prefix: the hash
// of the canonical spec with every parameter that only affects the
// measured window removed. Two cells with equal prefix hashes reach
// byte-identical simulator states at the end of warmup, so one cell's
// warm snapshot (sealed against this hash) restores into the other —
// the key a sweep groups its store misses by for a shared warmup
// (internal/service).
//
// ok is false when the spec has no reusable warmup prefix: warmup is
// disabled, or ANTT runs standalone phases a single engine snapshot
// cannot represent.
func (s RunSpec) PrefixHash() (string, bool, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", false, err
	}
	if c.Options.ANTT || c.Options.WarmupPerCore <= 0 {
		return "", false, nil
	}
	d, err := Lookup(c.Scheme)
	if err != nil {
		return "", false, err
	}
	if !d.MeasuredCoupled {
		// The measured quota is the only knob that does not shape warmup
		// (Options.Canonical already resolved a defaulted warmup against
		// it). omitempty drops the zero, keeping the encoding canonical.
		c.Options.AccessesPerCore = 0
	}
	b, err := json.Marshal(c)
	if err != nil {
		return "", false, fmt.Errorf("spec: encoding warm prefix: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(prefixDomain))
	h.Write(b)
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), true, nil
}
