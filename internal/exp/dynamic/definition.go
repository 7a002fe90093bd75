package dynamic

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"

	"lowcontend/internal/exp"
	"lowcontend/internal/machine"
)

// Limits bound what one definition may declare. The daemon derives
// them from its serve.Limits so a stored definition can never ask for
// more than a direct run request could; the CLI uses DefaultLimits.
type Limits struct {
	// MaxSizes caps the size grid's entry count (and the seed grid's).
	MaxSizes int
	// MaxSize caps each individual size.
	MaxSize int
	// MaxPhases caps the phase pipeline's length.
	MaxPhases int
	// MaxArrays caps the declared input arrays.
	MaxArrays int
}

// DefaultLimits returns the stock definition bounds, matching the
// daemon's stock request limits on the shared dimensions.
func DefaultLimits() Limits {
	return Limits{MaxSizes: 16, MaxSize: 1 << 20, MaxPhases: 16, MaxArrays: 8}
}

// withDefaults fills zero fields with the stock bounds.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxSizes <= 0 {
		l.MaxSizes = d.MaxSizes
	}
	if l.MaxSize <= 0 {
		l.MaxSize = d.MaxSize
	}
	if l.MaxPhases <= 0 {
		l.MaxPhases = d.MaxPhases
	}
	if l.MaxArrays <= 0 {
		l.MaxArrays = d.MaxArrays
	}
	return l
}

// Definition is the declarative experiment document clients POST. The
// struct field order is the canonical JSON field order; Canonical
// serializes a canonicalized Definition compactly in exactly this
// order, and ID hashes those bytes.
//
// A definition runs in one of two model modes. In comparison mode no
// phase pins a model and the whole pipeline runs once per entry of
// Models (default: QRQW alone) on identical inputs — the registry's
// cross-model comparison shape. In pinned mode every phase names its
// own model (and Models must be empty): phases sharing a model share
// one session, so "build a hash table, then measure the lookup storm"
// composes, while differently-pinned phases are charged side by side —
// the Table I shape.
type Definition struct {
	// Name is the mutable handle ([a-z][a-z0-9._-]*, max 64 chars; the
	// "x-" prefix is reserved for content ids). Builtin registry names
	// shadow dynamic ones, so reusing one is refused at store time.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Models is the comparison-mode model list; empty selects pinned
	// mode (every phase must then carry a model) or, when no phase pins
	// one either, defaults to ["QRQW"].
	Models []string `json:"models,omitempty"`
	// Sizes is the definition's size grid: the problem sizes its cells
	// expand over. Run and sweep requests may filter it but cannot step
	// outside it (the grid is part of the content hash).
	Sizes []int `json:"sizes"`
	// Seeds are per-cell seed entries mixed with the runner's base
	// seed; default [1].
	Seeds []uint64 `json:"seeds,omitempty"`
	// Arrays declare named inputs materialized deterministically from
	// the cell seed and consumed by phases via their "array" field.
	Arrays []ArrayDecl `json:"arrays,omitempty"`
	// Phases is the pipeline, executed in order within each session.
	Phases []Phase `json:"phases"`
}

// ArrayDecl declares one named input array. Fill picks the generator:
//
//	distinct  distinct keys below 2^30 (hashing input)
//	uniform   i.i.d. values below the "max" parameter (default 2^40)
//	labels    set labels below max(1, n/"div") (default div 8)
//
// Arrays are uploaded to a session on first reference and stay
// device-resident, so later phases observe earlier phases' mutations
// (a sort phase leaves the array sorted).
type ArrayDecl struct {
	Name   string           `json:"name"`
	Fill   string           `json:"fill"`
	Params map[string]int64 `json:"params,omitempty"`
}

// Phase is one pipeline step: an algorithm from exp.Legs, the leg
// table the builtin cells run, an optional pinned model, the array it
// consumes (for array-taking algorithms), and per-phase parameters.
type Phase struct {
	// Name labels the phase's measurement rows; defaults to Algorithm.
	Name      string           `json:"name,omitempty"`
	Algorithm string           `json:"algorithm"`
	Model     string           `json:"model,omitempty"`
	Array     string           `json:"array,omitempty"`
	Params    map[string]int64 `json:"params,omitempty"`
}

// fills maps each array fill to its allowed parameters with their
// defaults; exp's input generators implement them (see hostArray).
var fills = map[string]map[string]int64{
	"distinct": {},
	"uniform":  {"max": 1 << 40},
	"labels":   {"div": 8},
}

func knownFills() string { return strings.Join(slices.Sorted(maps.Keys(fills)), ", ") }

func knownAlgorithms() string { return strings.Join(slices.Sorted(maps.Keys(exp.Legs)), ", ") }

// Parse strictly decodes, validates, and canonicalizes one definition
// document. On success the returned Definition is canonical: defaults
// filled, model names in their machine spelling, phase names assigned.
// Unknown fields, trailing data, and every semantic violation return a
// typed *Error with the offending field's JSON path.
func Parse(raw []byte, lim Limits) (Definition, *Error) {
	var def Definition
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		return def, &Error{Code: CodeInvalidBody, Message: fmt.Sprintf("bad definition: %v", err)}
	}
	if dec.More() {
		return def, &Error{Code: CodeInvalidBody, Message: "bad definition: trailing data after the document"}
	}
	if derr := canonicalize(&def, lim.withDefaults()); derr != nil {
		return def, derr
	}
	return def, nil
}

// Canonical returns the canonical JSON bytes of a canonicalized
// definition: compact, fields in declaration order, parameter maps in
// sorted key order (encoding/json's map ordering). These are the bytes
// ID hashes and GET /v1/experiments/{id} serves back.
func Canonical(def Definition) []byte {
	b, err := json.Marshal(def)
	if err != nil {
		// Definition contains only marshal-safe types; unreachable.
		panic(err)
	}
	return b
}

// ID returns the definition's content id: "x-" plus the first 12 hex
// digits of the SHA-256 of its canonical bytes. Canonicalization runs
// before hashing, so formatting, field order, and omitted defaults
// never fragment identity.
func ID(def Definition) string {
	sum := sha256.Sum256(Canonical(def))
	return "x-" + hex.EncodeToString(sum[:])[:12]
}

// nameOK enforces the shared identifier syntax for definition, array,
// and phase names.
func nameOK(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	if s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-'
		if !ok {
			return false
		}
	}
	return true
}

const nameRule = "must start with a lowercase letter and contain only [a-z0-9._-] (max 64 chars)"

// canonicalize validates def in place and fills defaults. Checks run in
// document order so the first error a client sees points at the first
// broken field.
func canonicalize(def *Definition, lim Limits) *Error {
	if def.Name == "" {
		return fieldErr("name", "name is required")
	}
	if !nameOK(def.Name) {
		return fieldErr("name", "name %q %s", def.Name, nameRule)
	}
	if strings.HasPrefix(def.Name, "x-") {
		return fieldErr("name", "name %q is reserved: the x- prefix names stored definitions by content id", def.Name)
	}

	for i, m := range def.Models {
		mm, ok := machine.ParseModel(m)
		if !ok {
			return fieldErr(fmt.Sprintf("models[%d]", i), "unknown model %q", m)
		}
		def.Models[i] = mm.String()
		if slices.Contains(def.Models[:i], def.Models[i]) {
			return fieldErr(fmt.Sprintf("models[%d]", i), "duplicate model %q", def.Models[i])
		}
	}

	if len(def.Sizes) == 0 {
		return fieldErr("sizes", "sizes is required: the definition's size grid")
	}
	if len(def.Sizes) > lim.MaxSizes {
		return fieldErr("sizes", "too many sizes: %d (limit %d)", len(def.Sizes), lim.MaxSizes)
	}
	for i, n := range def.Sizes {
		if n < 1 || n > lim.MaxSize {
			return fieldErr(fmt.Sprintf("sizes[%d]", i), "size %d out of range [1, %d]", n, lim.MaxSize)
		}
		if slices.Contains(def.Sizes[:i], n) {
			return fieldErr(fmt.Sprintf("sizes[%d]", i), "duplicate size %d", n)
		}
	}

	if len(def.Seeds) > lim.MaxSizes {
		return fieldErr("seeds", "too many seeds: %d (limit %d)", len(def.Seeds), lim.MaxSizes)
	}
	for i, s := range def.Seeds {
		if slices.Contains(def.Seeds[:i], s) {
			return fieldErr(fmt.Sprintf("seeds[%d]", i), "duplicate seed %d", s)
		}
	}
	if len(def.Seeds) == 0 {
		def.Seeds = []uint64{1}
	}

	if len(def.Arrays) > lim.MaxArrays {
		return fieldErr("arrays", "too many arrays: %d (limit %d)", len(def.Arrays), lim.MaxArrays)
	}
	arrays := map[string]*ArrayDecl{}
	for i := range def.Arrays {
		a := &def.Arrays[i]
		if a.Name == "" {
			return fieldErr(fmt.Sprintf("arrays[%d].name", i), "array name is required")
		}
		if !nameOK(a.Name) {
			return fieldErr(fmt.Sprintf("arrays[%d].name", i), "array name %q %s", a.Name, nameRule)
		}
		if _, dup := arrays[a.Name]; dup {
			return fieldErr(fmt.Sprintf("arrays[%d].name", i), "duplicate array %q", a.Name)
		}
		f, ok := fills[a.Fill]
		if !ok {
			return fieldErr(fmt.Sprintf("arrays[%d].fill", i), "unknown fill %q (known: %s)", a.Fill, knownFills())
		}
		if derr := canonParams(&a.Params, f, fmt.Sprintf("arrays[%d].params", i),
			fmt.Sprintf("fill %q", a.Fill)); derr != nil {
			return derr
		}
		arrays[a.Name] = a
	}

	if len(def.Phases) == 0 {
		return fieldErr("phases", "phases is required: at least one phase")
	}
	if len(def.Phases) > lim.MaxPhases {
		return fieldErr("phases", "too many phases: %d (limit %d)", len(def.Phases), lim.MaxPhases)
	}
	pinned := def.Phases[0].Model != ""
	if pinned && len(def.Models) > 0 {
		return fieldErr("models", "models must be empty when phases pin their own models")
	}
	// built tracks which (array, model) pairs have a hash table by the
	// time each phase runs, for the hash.lookup ordering check. In
	// comparison mode the model key is "" (one session per listed
	// model, all executing the same pipeline).
	built := map[[2]string]bool{}
	phaseNames := map[string]bool{}
	referenced := map[string]bool{}
	for i := range def.Phases {
		ph := &def.Phases[i]
		path := func(f string) string { return fmt.Sprintf("phases[%d].%s", i, f) }
		k, ok := exp.Legs[ph.Algorithm]
		if !ok {
			if ph.Algorithm == "" {
				return fieldErr(path("algorithm"), "algorithm is required (known: %s)", knownAlgorithms())
			}
			return fieldErr(path("algorithm"), "unknown algorithm %q (known: %s)", ph.Algorithm, knownAlgorithms())
		}
		if ph.Name == "" {
			ph.Name = ph.Algorithm
		} else if !nameOK(ph.Name) {
			return fieldErr(path("name"), "phase name %q %s", ph.Name, nameRule)
		}
		if phaseNames[ph.Name] {
			return fieldErr(path("name"),
				"duplicate phase name %q (phases default to their algorithm name; set \"name\" to disambiguate)", ph.Name)
		}
		phaseNames[ph.Name] = true
		if (ph.Model != "") != pinned {
			if pinned {
				return fieldErr(path("model"), "phase %q pins no model but other phases do; pin every phase or none", ph.Name)
			}
			return fieldErr(path("model"), "phase %q pins a model but other phases do not; pin every phase or none", ph.Name)
		}
		if ph.Model != "" {
			mm, ok := machine.ParseModel(ph.Model)
			if !ok {
				return fieldErr(path("model"), "unknown model %q", ph.Model)
			}
			ph.Model = mm.String()
		}
		if len(k.Fills) == 0 {
			if ph.Array != "" {
				return fieldErr(path("array"), "algorithm %q takes no array argument", ph.Algorithm)
			}
		} else {
			if ph.Array == "" {
				return fieldErr(path("array"), "algorithm %q requires an array argument", ph.Algorithm)
			}
			a, ok := arrays[ph.Array]
			if !ok {
				return fieldErr(path("array"), "phase references undeclared array %q", ph.Array)
			}
			if !slices.Contains(k.Fills, a.Fill) {
				return fieldErr(path("array"), "algorithm %q needs an array with fill %s, but %q has fill %q",
					ph.Algorithm, strings.Join(k.Fills, " or "), a.Name, a.Fill)
			}
			referenced[ph.Array] = true
		}
		if derr := canonParams(&ph.Params, k.Params, path("params"),
			fmt.Sprintf("algorithm %q", ph.Algorithm)); derr != nil {
			return derr
		}
		if ph.Algorithm == exp.HashLookup && !built[[2]string{ph.Array, ph.Model}] {
			if pinned {
				return fieldErr(path("array"),
					"hash.lookup on array %q needs an earlier hash.build phase on the same array under model %s", ph.Array, ph.Model)
			}
			return fieldErr(path("array"),
				"hash.lookup on array %q needs an earlier hash.build phase on the same array", ph.Array)
		}
		if ph.Algorithm == exp.HashBuild {
			built[[2]string{ph.Array, ph.Model}] = true
		}
	}
	for i, a := range def.Arrays {
		if !referenced[a.Name] {
			return fieldErr(fmt.Sprintf("arrays[%d].name", i), "array %q is declared but never referenced by a phase", a.Name)
		}
	}

	if !pinned && len(def.Models) == 0 {
		def.Models = []string{machine.QRQW.String()}
	}
	return nil
}

// canonParams checks params against the owner's allowed table and fills
// the defaults, so canonical documents always spell every parameter
// out. owner reads like `algorithm "hash.build"` or `fill "labels"`.
func canonParams(params *map[string]int64, allowed map[string]int64, path, owner string) *Error {
	for k, v := range *params {
		if _, ok := allowed[k]; !ok {
			if len(allowed) == 0 {
				return fieldErr(path+"."+k, "%s takes no parameters", owner)
			}
			return fieldErr(path+"."+k, "unknown parameter %q for %s (known: %s)", k, owner, knownParams(allowed))
		}
		if v < 1 {
			return fieldErr(path+"."+k, "parameter %q must be positive", k)
		}
	}
	if len(allowed) == 0 {
		return nil
	}
	if *params == nil {
		*params = map[string]int64{}
	}
	for k, v := range allowed {
		if _, ok := (*params)[k]; !ok {
			(*params)[k] = v
		}
	}
	return nil
}

func knownParams(allowed map[string]int64) string {
	keys := make([]string, 0, len(allowed))
	for k := range allowed {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return strings.Join(keys, ", ")
}
