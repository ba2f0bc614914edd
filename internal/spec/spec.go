// Package spec defines the canonical run specification: one
// JSON-serializable value that names everything a simulation result
// depends on — scheme, declarative scheme parameters, workload mix, run
// options and seed — plus a registry of scheme descriptors that turns a
// spec into a runnable factory.
//
// Because results are a pure function of (scheme, mix, options, seed) —
// the determinism contract proven by the golden-JSON tests — two specs
// with the same canonical encoding always produce byte-identical result
// JSON. The SHA-256 hash of that canonical encoding is therefore a sound
// memoization key: the service's result store, ETags and the CLI all key
// on Hash. Canonicalization is a fixed point (Canonical of a canonical spec
// is itself), which FuzzSpec enforces.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"bimodal/internal/addr"
)

// DefaultAccessesPerCore is the per-core replay quota a canonical spec
// assumes when none is given (mirrors sim.Options.normalize).
const DefaultAccessesPerCore = 200_000

// Params are a scheme's declarative parameters: a flat name → integer
// map validated against the scheme descriptor's parameter schema.
// Boolean parameters are 0/1 (JSON true/false is accepted on input and
// normalized). A zero value means "use the scheme default", identically
// to omitting the key, so canonical specs never carry zero entries.
type Params map[string]int64

// UnmarshalJSON accepts integers and JSON booleans (true→1, false→0) and
// rejects fractional numbers, which would silently truncate.
func (p *Params) UnmarshalJSON(b []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("spec: params must be an object of integers or booleans: %w", err)
	}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(Params, len(raw))
	for _, k := range keys {
		v := bytes.TrimSpace(raw[k])
		switch string(v) {
		case "true":
			out[k] = 1
		case "false":
			out[k] = 0
		default:
			var n int64
			if err := json.Unmarshal(v, &n); err != nil {
				return fmt.Errorf("spec: param %q: want an integer or boolean, got %s", k, v)
			}
			out[k] = n
		}
	}
	*p = out
	return nil
}

// canonical drops zero-valued entries (zero == default == absent) and
// returns nil for an empty result so the JSON field is omitted.
func (p Params) canonical() Params {
	var out Params
	for k, v := range p {
		if v == 0 {
			continue
		}
		if out == nil {
			out = make(Params, len(p))
		}
		out[k] = v
	}
	return out
}

// merged overlays p over base (p wins). Either may be nil.
func (p Params) merged(base Params) Params {
	if len(base) == 0 {
		return p
	}
	out := make(Params, len(base)+len(p))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Get returns the parameter value, or def when the key is absent or zero.
func (p Params) Get(key string, def int64) int64 {
	if v := p[key]; v != 0 {
		return v
	}
	return def
}

// Options are the run-scaling knobs of a spec. The field set and JSON
// tags are shared with the service wire schema (service.RunOptions is an
// alias of this type). Worker counts are deliberately absent: they never
// affect results, so they must never affect the hash.
type Options struct {
	// AccessesPerCore is the per-core replay quota; 0 means
	// DefaultAccessesPerCore.
	AccessesPerCore int64 `json:"accesses_per_core,omitempty"`
	// WarmupPerCore precedes the measured window; 0 means 1:1 with
	// AccessesPerCore, negative disables warmup (canonical form -1).
	WarmupPerCore int64 `json:"warmup_per_core,omitempty"`
	// CacheBytes overrides the preset DRAM cache size when non-zero.
	CacheBytes uint64 `json:"cache_bytes,omitempty"`
	// CacheDivisor scales the preset cache size down when CacheBytes is
	// zero; 0 or 1 disables (canonical form 0).
	CacheDivisor uint64 `json:"cache_divisor,omitempty"`
	// Prefetch enables the next-N-lines prefetcher when positive.
	Prefetch int `json:"prefetch,omitempty"`
	// ANTT additionally runs each benchmark standalone and reports the
	// average normalized turnaround time.
	ANTT bool `json:"antt,omitempty"`
}

// Canonical validates the options and resolves every defaulted field to
// its explicit value, so that equal-result options encode equal bytes.
// The mapping is a fixed point: Canonical(Canonical(o)) == Canonical(o).
func (o Options) Canonical() (Options, error) {
	switch {
	case o.AccessesPerCore < 0:
		return Options{}, fmt.Errorf("spec: accesses_per_core %d must not be negative", o.AccessesPerCore)
	case o.CacheBytes != 0 && !addr.IsPow2(o.CacheBytes):
		return Options{}, fmt.Errorf("spec: cache_bytes %d must be a power of two", o.CacheBytes)
	case o.CacheDivisor > 1 && !addr.IsPow2(o.CacheDivisor):
		return Options{}, fmt.Errorf("spec: cache_divisor %d must be a power of two", o.CacheDivisor)
	}
	if o.AccessesPerCore == 0 {
		o.AccessesPerCore = DefaultAccessesPerCore
	}
	switch {
	case o.WarmupPerCore == 0:
		o.WarmupPerCore = o.AccessesPerCore
	case o.WarmupPerCore < 0:
		// sim treats every negative warmup as "disabled"; -1 is the
		// canonical spelling (0 would re-normalize to AccessesPerCore).
		o.WarmupPerCore = -1
	}
	if o.CacheBytes != 0 || o.CacheDivisor <= 1 {
		// An explicit size makes the divisor inert; 0/1 both mean "off".
		o.CacheDivisor = 0
	}
	if o.Prefetch < 0 {
		o.Prefetch = 0
	}
	return o, nil
}

// RunSpec is one simulation cell, fully specified. Its canonical JSON
// encoding (compact, struct-field order, sorted param keys — exactly what
// encoding/json produces for the canonicalized value) is the identity of
// the result.
type RunSpec struct {
	// Scheme names a registered scheme: a canonical name or any alias.
	Scheme string `json:"scheme"`
	// Params parameterize the scheme, validated against its descriptor.
	Params Params `json:"params,omitempty"`
	// Mix names the workload mix (Q1..Q24, E1..E16, S1..S8, KV4, WEB4,
	// SCAN4, DC4). Exactly one of Mix and Workload must be set.
	Mix string `json:"mix,omitempty"`
	// Workload declares a composed multi-tenant workload instead of a
	// named mix.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Options scale the run.
	Options Options `json:"options,omitempty"`
	// Seed decorrelates reruns; 0 means 1 (canonical form >= 1).
	Seed uint64 `json:"seed,omitempty"`
}

// Canonical validates the spec against the registry and resolves aliases,
// defaulted options and the seed to their explicit forms. Two specs
// describing the same simulation canonicalize to the same value; the
// mapping is a fixed point.
func (s RunSpec) Canonical() (RunSpec, error) {
	d, err := Lookup(s.Scheme)
	if err != nil {
		return RunSpec{}, err
	}
	s.Scheme = d.Name
	if err := d.CheckParams(s.Params); err != nil {
		return RunSpec{}, err
	}
	s.Params = s.Params.canonical()
	switch {
	case s.Mix == "" && s.Workload == nil:
		return RunSpec{}, fmt.Errorf("spec: one of mix and workload is required")
	case s.Mix != "" && s.Workload != nil:
		return RunSpec{}, fmt.Errorf("spec: mix %q and workload are mutually exclusive", s.Mix)
	case s.Workload != nil:
		w, err := s.Workload.Canonical()
		if err != nil {
			return RunSpec{}, err
		}
		s.Workload = &w
	}
	if s.Options, err = s.Options.Canonical(); err != nil {
		return RunSpec{}, err
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s, nil
}

// CanonicalJSON returns the compact canonical encoding of the spec.
func (s RunSpec) CanonicalJSON() ([]byte, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// Hash returns the spec's content hash ("sha256:<hex>" over the canonical
// JSON). Determinism makes this a sound memoization key for result bytes.
func (s RunSpec) Hash() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return HashBytes(b), nil
}

// HashBytes returns the content hash of an already-canonical encoding.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// HashJSON marshals v (which must already be in canonical form) and
// returns its content hash. The service uses this to hash whole canonical
// sweep requests with the same format as RunSpec.Hash.
func HashJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return HashBytes(b), nil
}

// Parse decodes a RunSpec from JSON, rejecting unknown fields and
// trailing garbage. The result is not yet canonical; call Canonical.
func Parse(b []byte) (RunSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s RunSpec
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, fmt.Errorf("spec: decoding run spec: %w", err)
	}
	if dec.More() {
		return RunSpec{}, fmt.Errorf("spec: trailing data after run spec")
	}
	return s, nil
}
