// Package corners models PVT corner sets: named collections of evaluation
// scenarios (supply voltage plus interconnect derates), with explicit
// reference and worst-case roles and per-corner statistical weights.
//
// The reproduction historically hard-coded exactly two corners — "fast" at
// index 0, "slow" at the end — across tech, analysis, eval, buffering and
// opt. This package turns that into a first-class, pluggable layer:
//
//	ispd09                      the contest pair carried by the technology
//	                            model itself (fast 1.2 V / slow 1.0 V on
//	                            tech.Default45) — the default, and exactly
//	                            the legacy behavior
//	pvt5                        a five-corner PVT envelope derived from the
//	                            technology's native fast/slow pair: an
//	                            overdrive FF corner, the native pair, a
//	                            typical midpoint and an undervolt SS corner,
//	                            with interconnect derates on the process
//	                            extremes
//	mc:<n>:<seed>[:vσ[:rσ[:cσ]]] n deterministic Monte Carlo samples of
//	                            (Vdd, RDerate, CDerate) drawn around the
//	                            native corner envelope with the given
//	                            relative sigmas (defaults 0.05 each). Same
//	                            seed, same samples — runs are reproducible
//	                            and content-addressable.
//
// A Set is applied to a technology model with Apply, which installs the
// corners and their roles on a clone; every downstream consumer (the
// evaluators, the optimization passes, the eval metrics layer) then reads
// roles through tech.Tech's Reference/Worst accessors instead of indexing
// positionally.
package corners

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"contango/internal/tech"
)

// DefaultName is the default corner-set spec: the technology model's own
// corner list with the legacy roles (first = reference, last = worst).
const DefaultName = "ispd09"

// Set is a corner set: the scenarios plus their roles. Ref and Worst index
// into Corners; MC marks Monte Carlo sample sets (yield and quantile
// statistics apply).
type Set struct {
	Spec    string // canonical spec string ("ispd09", "pvt5", "mc:8:1", …)
	Corners []tech.Corner
	Ref     int  // reference (fast) corner index
	Worst   int  // worst-case (slow) corner index
	MC      bool // Monte Carlo sample set
}

// Reference returns the set's fast (reference) corner.
func (s *Set) Reference() tech.Corner { return s.Corners[s.Ref] }

// FromTech views a technology model's installed corners as a Set, reading
// the roles from the Tech accessors. It is how layers that only hold a
// tree (the optimization passes, CNE-only evaluation) recover the active
// set.
func FromTech(t *tech.Tech) *Set {
	spec := t.CornerSpec
	if spec == "" {
		spec = DefaultName
	}
	return &Set{
		Spec:    spec,
		Corners: t.Corners,
		Ref:     t.ReferenceIndex(),
		Worst:   t.WorstIndex(),
		MC:      t.MCSet,
	}
}

// Apply returns a clone of t with the set's corners and roles installed.
// The original Tech is never mutated — callers that share technology
// models across runs rely on that.
func (s *Set) Apply(t *tech.Tech) *tech.Tech {
	cp := t.Clone()
	cp.Corners = append([]tech.Corner(nil), s.Corners...)
	cp.RefIdx = s.Ref
	cp.WorstIdx = s.Worst
	cp.MCSet = s.MC
	cp.CornerSpec = s.Spec
	return cp
}

// spec is a parsed corner-set spec.
type spec struct {
	kind                   string // "ispd09", "pvt5", "mc"
	n                      int
	seed                   int64
	vSigma, rSigma, cSigma float64
}

// defaultSigma is the relative sigma applied to Vdd, wire resistance and
// capacitance when an mc spec does not override them.
const defaultSigma = 0.05

// parseSpec validates the corner-set grammar without needing a technology
// model.
func parseSpec(raw string) (spec, error) {
	sp := strings.TrimSpace(raw)
	switch sp {
	case "", DefaultName:
		return spec{kind: DefaultName}, nil
	case "pvt5":
		return spec{kind: "pvt5"}, nil
	}
	if !strings.HasPrefix(sp, "mc:") {
		return spec{}, fmt.Errorf("corners: unknown corner set %q (want %s, or mc:<n>:<seed>[:vsigma[:rsigma[:csigma]]])",
			raw, strings.Join(Names(), ", "))
	}
	parts := strings.Split(sp, ":")
	if len(parts) < 3 || len(parts) > 6 {
		return spec{}, fmt.Errorf("corners: bad mc spec %q (want mc:<n>:<seed>[:vsigma[:rsigma[:csigma]]])", raw)
	}
	out := spec{kind: "mc", vSigma: defaultSigma, rSigma: defaultSigma, cSigma: defaultSigma}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 1 || n > 4096 {
		return spec{}, fmt.Errorf("corners: bad mc sample count %q (want 1..4096)", parts[1])
	}
	out.n = n
	seed, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return spec{}, fmt.Errorf("corners: bad mc seed %q: %v", parts[2], err)
	}
	out.seed = seed
	sigmas := []*float64{&out.vSigma, &out.rSigma, &out.cSigma}
	for i, p := range parts[3:] {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || !(v >= 0 && v <= 0.5) { // NaN fails both comparisons

			return spec{}, fmt.Errorf("corners: bad mc sigma %q (want 0..0.5)", p)
		}
		*sigmas[i] = v
	}
	return out, nil
}

// Validate reports whether raw parses as a corner-set spec. An empty spec
// is valid (it means the default set).
func Validate(raw string) error {
	_, err := parseSpec(raw)
	return err
}

// Canon returns the canonical rendering of a valid spec (the empty spec
// canonicalizes to DefaultName; mc specs spell out every sigma). Invalid
// specs are returned verbatim — the caller's Build reports the error.
func Canon(raw string) string {
	sp, err := parseSpec(raw)
	if err != nil {
		return raw
	}
	return sp.String()
}

func (sp spec) String() string {
	switch sp.kind {
	case "mc":
		return fmt.Sprintf("mc:%d:%d:%g:%g:%g", sp.n, sp.seed, sp.vSigma, sp.rSigma, sp.cSigma)
	default:
		return sp.kind
	}
}

// Names lists the built-in corner-set names (the mc family is a generator,
// listed by its grammar elsewhere).
func Names() []string { return []string{DefaultName, "pvt5"} }

// Cardinality returns how many corners a spec evaluates per CNE without
// building the set: the native-pair count for the default set (on the
// standard technology), five for pvt5, and the sample count for mc specs.
// Invalid specs report the default pair — callers needing validation use
// Validate; Cardinality only feeds coarse features such as the scheduler's
// cost estimator.
func Cardinality(raw string) int {
	sp, err := parseSpec(raw)
	if err != nil {
		return 2
	}
	switch sp.kind {
	case DefaultName:
		return 2
	case "pvt5":
		return 5
	default:
		return sp.n
	}
}

// Build constructs the corner set described by raw for technology t.
// Generated sets (pvt5, mc) are derived from t's native fast/slow corner
// pair, so they adapt to custom technology models.
func Build(raw string, t *tech.Tech) (*Set, error) {
	sp, err := parseSpec(raw)
	if err != nil {
		return nil, err
	}
	if len(t.Corners) == 0 {
		return nil, fmt.Errorf("corners: technology model has no corners")
	}
	switch sp.kind {
	case DefaultName:
		s := FromTech(t)
		s.Spec = DefaultName
		return s, nil
	case "pvt5":
		return pvt5(t), nil
	default:
		return monteCarlo(sp, t), nil
	}
}

// pvt5 builds the five-corner PVT envelope around the native pair:
// FF overdrive (+10% Vdd, fast interconnect), the native fast and slow
// corners, the typical midpoint, and an SS undervolt corner (-5% below the
// slow Vdd, slow interconnect). Roles: the native fast corner stays the
// reference; SS is the worst case.
func pvt5(t *tech.Tech) *Set {
	ref, worst := t.Reference(), t.Worst()
	vHi, vLo := ref.Vdd, worst.Vdd
	cs := []tech.Corner{
		{Name: fmt.Sprintf("ff@%.2fV", vHi*1.10), Vdd: vHi * 1.10, RDerate: 0.90, CDerate: 0.95},
		{Name: ref.Name, Vdd: vHi, RDerate: ref.RDerate, CDerate: ref.CDerate},
		{Name: fmt.Sprintf("tt@%.2fV", (vHi+vLo)/2), Vdd: (vHi + vLo) / 2},
		{Name: worst.Name, Vdd: vLo, RDerate: worst.RDerate, CDerate: worst.CDerate},
		{Name: fmt.Sprintf("ss@%.2fV", vLo*0.95), Vdd: vLo * 0.95, RDerate: 1.10, CDerate: 1.05},
	}
	return &Set{Spec: "pvt5", Corners: cs, Ref: 1, Worst: 4}
}

// monteCarlo draws sp.n deterministic (Vdd, RDerate, CDerate) samples.
// Vdd is sampled around the midpoint of the native fast/slow envelope with
// relative sigma vSigma of that midpoint; derates around 1.0 with rSigma
// and cSigma. Draws are clamped to ±3σ, and Vdd additionally to stay a
// diode drop above threshold, so a degenerate sample can never produce an
// unevaluable corner. The draw order is fixed (vdd, r, c per sample on a
// rand.NewSource PRNG), which makes the set — and therefore every metric
// computed under it — a pure function of the spec string.
func monteCarlo(sp spec, t *tech.Tech) *Set {
	ref, worst := t.Reference(), t.Worst()
	vNom := (ref.Vdd + worst.Vdd) / 2
	rng := rand.New(rand.NewSource(sp.seed))
	// scaleFloor bounds how far a derate can fall: with sigma up to 0.5 a
	// -3σ draw would otherwise reach 1-1.5 = -0.5, and a non-positive R or
	// C scale produces negative conductances in the evaluators — the run
	// would complete and silently report unphysical metrics.
	const scaleFloor = 0.1
	draw := func(sigma float64) float64 {
		if sigma == 0 {
			return 1
		}
		g := rng.NormFloat64()
		if g > 3 {
			g = 3
		} else if g < -3 {
			g = -3
		}
		s := 1 + sigma*g
		if s < scaleFloor {
			s = scaleFloor
		}
		return s
	}
	vMin := t.Vt + 0.1
	cs := make([]tech.Corner, sp.n)
	refIdx, worstIdx := 0, 0
	bestSpeed, worstSpeed := math.Inf(1), math.Inf(-1)
	for i := range cs {
		vdd := vNom * draw(sp.vSigma)
		if vdd < vMin {
			vdd = vMin
		}
		rd := draw(sp.rSigma)
		cd := draw(sp.cSigma)
		cs[i] = tech.Corner{
			Name:    fmt.Sprintf("mc%03d@%.3fV", i, vdd),
			Vdd:     vdd,
			RDerate: rd,
			CDerate: cd,
		}
		// Slowness score: weaker drive (low overdrive) and slower
		// interconnect (high RC) both push a sample toward the worst role.
		slowness := rd * cd / (vdd - t.Vt)
		if slowness < bestSpeed {
			bestSpeed, refIdx = slowness, i
		}
		if slowness > worstSpeed {
			worstSpeed, worstIdx = slowness, i
		}
	}
	return &Set{Spec: sp.String(), Corners: cs, Ref: refIdx, Worst: worstIdx, MC: true}
}

// Info describes one built-in corner set for listings (the contangod
// GET /api/v1/corners endpoint and the CLI help).
type Info struct {
	Name        string        `json:"name"`
	Description string        `json:"description"`
	Corners     []tech.Corner `json:"corners,omitempty"`
	Ref         int           `json:"ref"`
	Worst       int           `json:"worst"`
	MC          bool          `json:"mc,omitempty"`
}

// List describes every built-in set as instantiated for t, plus the mc
// generator's grammar (with a small example instantiation).
func List(t *tech.Tech) []Info {
	infos := []Info{
		{Name: DefaultName, Description: "the technology model's native corner pair (contest default; legacy behavior)"},
		{Name: "pvt5", Description: "five-corner PVT envelope: ff/fast/tt/slow/ss with interconnect derates on the extremes"},
		{Name: "mc:<n>:<seed>[:vsigma[:rsigma[:csigma]]]", Description: "deterministic Monte Carlo samples of (Vdd, R, C) around the native envelope; shown instantiated as mc:4:1"},
	}
	for i := range infos {
		name := infos[i].Name
		if strings.HasPrefix(name, "mc:") {
			name = "mc:4:1"
		}
		if s, err := Build(name, t); err == nil {
			infos[i].Corners = s.Corners
			infos[i].Ref = s.Ref
			infos[i].Worst = s.Worst
			infos[i].MC = s.MC
		}
	}
	return infos
}
