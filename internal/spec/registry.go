package spec

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"bimodal/internal/addr"
	"bimodal/internal/core"
	"bimodal/internal/dramcache"
)

// BuildConfig carries everything a builder needs besides the declarative
// parameters.
type BuildConfig struct {
	// Cache is the sized scheme configuration (sim.ConfigFor output).
	Cache dramcache.Config
	// CoreParams, when non-nil, overrides the Bi-Modal core parameters
	// (callers use this for run-length scaling; see sim.ScaledCoreParams).
	// Geometry params in the spec are applied on top.
	CoreParams *core.Params
	// Name overrides the scheme instance's display name when non-empty.
	Name string
}

// Builder constructs a scheme instance from a build configuration and the
// merged (preset + user) parameters. Builders validate before building and
// return errors instead of panicking, so arbitrary service input cannot
// crash the server.
type Builder func(bc BuildConfig, p Params) (dramcache.Scheme, error)

// ParamDef is one entry of a scheme's parameter schema.
type ParamDef struct {
	// Name is the spec key ("way_locator_k").
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Bool restricts the value to 0/1.
	Bool bool
	// Min/Max bound non-bool values (0 always means "default" and is
	// exempt; negatives are therefore always rejected).
	Min, Max int64
	// Pow2 additionally requires a power of two.
	Pow2 bool
}

// Descriptor describes one registered scheme.
type Descriptor struct {
	// Name is the canonical CLI/spec name ("bimodal", "alloy", ...).
	Name string
	// Aliases are alternative accepted names, resolved to Name.
	Aliases []string
	// Description is a one-line summary for listings.
	Description string
	// Family, when non-empty, names the descriptor this one presets: the
	// builder and parameter schema are inherited and Preset params are
	// merged under the user's. The four BiModal variants are presets of
	// family "bimodal".
	Family string
	// Baseline marks the comparison baselines the paper evaluates against
	// (experiments derive their baseline lists from this flag, in
	// registration order).
	Baseline bool
	// DisplayName, when non-empty, is the instance display-name override
	// the preset applies (kept for parity with the legacy factories).
	DisplayName string
	// Preset params underlie user params.
	Preset Params
	// Params is the parameter schema; keys outside it are rejected.
	Params []ParamDef
	// CrossCheck validates relations between merged parameters that
	// per-key bounds cannot express.
	CrossCheck func(Params) error
	// Build constructs the scheme.
	Build Builder
}

var (
	regMu      sync.RWMutex
	regOrdered []*Descriptor
	regByName  = map[string]*Descriptor{}
)

// Register adds a descriptor to the registry. Family descriptors inherit
// their family's builder, schema and cross-check. Name and alias
// collisions are errors.
func Register(d Descriptor) error {
	regMu.Lock()
	defer regMu.Unlock()
	if d.Name == "" {
		return fmt.Errorf("spec: descriptor needs a name")
	}
	if d.Family != "" {
		fam, ok := regByName[d.Family]
		if !ok {
			return fmt.Errorf("spec: scheme %q: unknown family %q", d.Name, d.Family)
		}
		if fam.Family != "" {
			return fmt.Errorf("spec: scheme %q: family %q is itself a preset", d.Name, d.Family)
		}
		d.Build = fam.Build
		d.Params = fam.Params
		d.CrossCheck = fam.CrossCheck
	}
	if d.Build == nil {
		return fmt.Errorf("spec: scheme %q has no builder", d.Name)
	}
	for _, name := range append([]string{d.Name}, d.Aliases...) {
		if prev, ok := regByName[name]; ok {
			return fmt.Errorf("spec: name %q already registered by scheme %q", name, prev.Name)
		}
	}
	dp := &d
	regOrdered = append(regOrdered, dp)
	regByName[d.Name] = dp
	for _, a := range d.Aliases {
		regByName[a] = dp
	}
	return nil
}

// mustRegister is Register for init-time registration.
func mustRegister(d Descriptor) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// Lookup resolves a scheme name or alias to its descriptor. On a miss the
// error lists the known names and suggests the nearest one.
func Lookup(name string) (Descriptor, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if d, ok := regByName[name]; ok {
		return *d, nil
	}
	known := make([]string, len(regOrdered))
	candidates := make([]string, 0, len(regByName))
	for i, d := range regOrdered {
		known[i] = d.Name
		candidates = append(candidates, d.Name)
		candidates = append(candidates, d.Aliases...)
	}
	msg := fmt.Sprintf("spec: unknown scheme %q (known: %s)", name, strings.Join(known, ", "))
	if sug := nearest(name, candidates); sug != "" {
		msg += fmt.Sprintf("; did you mean %q?", sug)
	}
	return Descriptor{}, fmt.Errorf("%s", msg)
}

// Names lists the canonical scheme names in registration (= comparison)
// order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(regOrdered))
	for i, d := range regOrdered {
		out[i] = d.Name
	}
	return out
}

// Descriptors lists every descriptor in registration order.
func Descriptors() []Descriptor {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Descriptor, len(regOrdered))
	for i, d := range regOrdered {
		out[i] = *d
	}
	return out
}

// Baselines lists the comparison-baseline descriptors in registration
// order (the order every figure compares them in).
func Baselines() []Descriptor {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []Descriptor
	for _, d := range regOrdered {
		if d.Baseline {
			out = append(out, *d)
		}
	}
	return out
}

// CheckParams validates user params against the schema: unknown keys are
// rejected with a suggestion, values must satisfy their bounds, and the
// cross-check runs over the merged (preset + user) view.
func (d Descriptor) CheckParams(p Params) error {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		def := d.paramDef(k)
		if def == nil {
			return d.unknownParamErr(k)
		}
		v := p[k]
		if def.Bool {
			if v != 0 && v != 1 {
				return fmt.Errorf("spec: scheme %q: param %q is a flag; want 0/1 or true/false, got %d", d.Name, k, v)
			}
			continue
		}
		if v == 0 {
			continue // zero = default, exempt from bounds
		}
		if v < def.Min || v > def.Max {
			return fmt.Errorf("spec: scheme %q: param %q = %d out of range [%d, %d]", d.Name, k, v, def.Min, def.Max)
		}
		if def.Pow2 && !addr.IsPow2(uint64(v)) {
			return fmt.Errorf("spec: scheme %q: param %q = %d must be a power of two", d.Name, k, v)
		}
	}
	if d.CrossCheck != nil {
		return d.CrossCheck(p.merged(d.Preset))
	}
	return nil
}

func (d Descriptor) paramDef(name string) *ParamDef {
	for i := range d.Params {
		if d.Params[i].Name == name {
			return &d.Params[i]
		}
	}
	return nil
}

func (d Descriptor) unknownParamErr(key string) error {
	if len(d.Params) == 0 {
		return fmt.Errorf("spec: scheme %q takes no parameters, got %q", d.Name, key)
	}
	names := make([]string, len(d.Params))
	for i, def := range d.Params {
		names[i] = def.Name
	}
	msg := fmt.Sprintf("spec: scheme %q has no parameter %q (accepted: %s)", d.Name, key, strings.Join(names, ", "))
	if sug := nearest(key, names); sug != "" {
		msg += fmt.Sprintf("; did you mean %q?", sug)
	}
	return fmt.Errorf("%s", msg)
}

// New validates the user params and builds a scheme instance. The preset
// display name applies unless bc.Name already overrides it.
func (d Descriptor) New(bc BuildConfig, p Params) (dramcache.Scheme, error) {
	if err := d.CheckParams(p); err != nil {
		return nil, err
	}
	if bc.Name == "" {
		bc.Name = d.DisplayName
	}
	return d.Build(bc, p.merged(d.Preset))
}

// nearest returns the candidate with the smallest Levenshtein distance to
// name when that distance is small enough to plausibly be a typo, else "".
func nearest(name string, candidates []string) string {
	if name == "" {
		return ""
	}
	const maxDist = 3
	best, bestDist := "", maxDist+1
	for _, c := range candidates {
		if d := levenshtein(name, c); d < bestDist {
			best, bestDist = c, d
		}
	}
	if bestDist > maxDist {
		return ""
	}
	return best
}

// levenshtein returns the edit distance between a and b (unit costs).
func levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
