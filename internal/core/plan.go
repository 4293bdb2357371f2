package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"contango/internal/eval"
	"contango/internal/opt"
)

// Plan is an ordered synthesis pipeline: a named list of pass steps.
type Plan struct {
	Name  string // display name: a built-in name or "custom"
	Steps []Step
}

// Step is one plan entry: either a single pass (with an optional per-step
// round budget and gate predicate) or a convergence cycle group.
type Step struct {
	Pass   string // canonical pass name (empty for cycle groups)
	Rounds int    // per-step round budget; 0 = opt.DefaultMaxRounds
	Gate   *Gate  // run the pass only while the predicate holds

	Cycle  []Step // non-nil: convergence group run until no improvement
	Repeat int    // cycle budget; 0 = DefaultCycles
}

// DefaultCycles is the budget of a cycle group without an xN suffix: the
// paper's convergence feedback loop runs at most three extra wire-pass
// cycles.
const DefaultCycles = 3

// Gate is a metric predicate: the gated pass runs only when the selected
// metric is above (or, with Less, below) Value.
type Gate struct {
	Metric string // skew | clr | lat | slew | viol | cap
	Less   bool
	Value  float64
}

// gateMetrics maps gate metric names to their Metrics accessors.
var gateMetrics = map[string]func(eval.Metrics) float64{
	"skew": func(m eval.Metrics) float64 { return m.Skew },
	"clr":  func(m eval.Metrics) float64 { return m.CLR },
	"lat":  func(m eval.Metrics) float64 { return m.MaxLatency },
	"slew": func(m eval.Metrics) float64 { return m.MaxSlew },
	"viol": func(m eval.Metrics) float64 { return float64(m.SlewViol) },
	"cap":  func(m eval.Metrics) float64 { return m.TotalCap },
}

// Admit reports whether the predicate holds for m.
func (g Gate) Admit(m eval.Metrics) bool {
	get, ok := gateMetrics[g.Metric]
	if !ok {
		return true
	}
	if g.Less {
		return get(m) < g.Value
	}
	return get(m) > g.Value
}

func (g Gate) String() string {
	op := ">"
	if g.Less {
		op = "<"
	}
	return g.Metric + op + strconv.FormatFloat(g.Value, 'g', -1, 64)
}

// String renders the step in the plan-spec grammar.
func (st Step) String() string {
	if st.Cycle != nil {
		inner := make([]string, len(st.Cycle))
		for i, c := range st.Cycle {
			inner[i] = c.String()
		}
		s := "cycle(" + strings.Join(inner, ",") + ")"
		if st.Repeat > 0 {
			s += "x" + strconv.Itoa(st.Repeat)
		}
		return s
	}
	s := st.Pass
	if st.Rounds > 0 {
		s += ":" + strconv.Itoa(st.Rounds)
	}
	if st.Gate != nil {
		s += "?" + st.Gate.String()
	}
	return s
}

// String renders the plan as its canonical spec: ParsePlan(p.String())
// yields an equal plan, and Options.Resolve uses this rendering as the
// canonical form the service fingerprints for its result cache.
func (p Plan) String() string {
	parts := make([]string, len(p.Steps))
	for i, st := range p.Steps {
		parts[i] = st.String()
	}
	return strings.Join(parts, ",")
}

// DefaultPlanName is the plan used when Options.Plan is empty: the paper's
// exact flow.
const DefaultPlanName = "paper"

// builtinOrder lists the built-in plan names in documentation order.
var builtinOrder = []string{"paper", "fast", "wire-only", "tune-only", "no-cycles", "eco"}

// builtinSpecs maps built-in plan names to their full specs. Steps without
// a ":N" budget run opt.DefaultMaxRounds rounds and a cycle group without
// an xN suffix runs up to DefaultCycles cycles; a custom spec pins either.
// A spec that pins exactly a default parses as unpinned, so it renders,
// keys and runs as the same plan without the suffix.
var builtinSpecs = map[string]string{
	// The paper's Fig. 1 cascade, bit-identical to the pre-pipeline flow.
	"paper": "zst,legalize,buffer,polarity,tbsz,twsz,twsn,bwsn,cycle(twsz,twsn,bwsn)",
	// Reduced round budgets, no convergence cycles: a quick preview run.
	"fast": "zst,legalize,buffer,polarity,tbsz:4,twsz:4,twsn:4,bwsn:4",
	// Wire passes only: "paper" without TBSZ.
	"wire-only": "zst,legalize,buffer,polarity,twsz,twsn,bwsn,cycle(twsz,twsn,bwsn)",
	// Buffer sizing and bottom-level fine-tuning only.
	"tune-only": "zst,legalize,buffer,polarity,tbsz,bwsn",
	// The full cascade without the convergence feedback loop.
	"no-cycles": "zst,legalize,buffer,polarity,tbsz,twsz,twsn,bwsn",
	// Incremental re-synthesis: restore a finished base tree, replay an
	// ECO delta with locality-scoped repair, then run a short tuning
	// cascade (construction — the cost of a full run — is skipped).
	"eco": "eco,twsz:2,twsn:2,bwsn:2",
}

// PlanNames lists the built-in plan names in documentation order.
func PlanNames() []string {
	out := make([]string, len(builtinOrder))
	copy(out, builtinOrder)
	return out
}

// BuiltinSpec returns the full plan spec behind a built-in plan name.
func BuiltinSpec(name string) (string, bool) {
	spec, ok := builtinSpecs[canon(name)]
	return spec, ok
}

func preludeSteps() []Step {
	return []Step{{Pass: "zst"}, {Pass: "legalize"}, {Pass: "buffer"}, {Pass: "polarity"}}
}

// hasConstruction reports whether any step names a construction pass. A
// custom spec that names none gets the construction prelude prepended, so
// users can type just the optimization cascade ("tbsz:2,cycle(twsz,twsn)x2").
// "eco" counts: it replaces the whole prelude by restoring an already-built
// tree, so prepending zst before it would be wrong.
func hasConstruction(steps []Step) bool {
	for _, st := range steps {
		if isConstruction(st.Pass) || hasConstruction(st.Cycle) {
			return true
		}
	}
	return false
}

// ResolvePlan turns a plan name or spec string into a Plan: built-in names
// resolve to their full specs, anything else parses as a spec. An empty
// string resolves to the default ("paper") plan.
func ResolvePlan(nameOrSpec string) (Plan, error) {
	s := strings.TrimSpace(nameOrSpec)
	if s == "" {
		s = DefaultPlanName
	}
	if spec, ok := builtinSpecs[canon(s)]; ok {
		p, err := ParsePlan(spec)
		if err != nil {
			return Plan{}, fmt.Errorf("built-in plan %s: %w", canon(s), err)
		}
		p.Name = canon(s)
		return p, nil
	}
	return ParsePlan(s)
}

// ParsePlan parses a plan spec. The grammar (case-insensitive, whitespace
// ignored):
//
//	plan  := step ("," step)*
//	step  := pass | cycle
//	pass  := name [":" rounds] ["?" gate]
//	cycle := "cycle(" plan ")" ["x" count]
//	gate  := metric (">" | "<") number     metric := skew|clr|lat|slew|viol|cap
//
// Pass names must be in the pass table; rounds and count are positive integers;
// cycle groups cannot nest. A spec naming no construction pass
// (zst/legalize/buffer/polarity/eco) gets the construction prelude
// prepended. Construction steps must precede the cascade: none may be
// gated, sit in a cycle group, or follow a step that arms the evaluator.
func ParsePlan(spec string) (Plan, error) {
	steps, err := parseSteps(spec)
	if err != nil {
		return Plan{}, err
	}
	if len(steps) == 0 {
		return Plan{}, fmt.Errorf("core: empty plan spec")
	}
	if err := checkConstructionOrder(steps); err != nil {
		return Plan{}, err
	}
	if !hasConstruction(steps) {
		steps = append(preludeSteps(), steps...)
	}
	return Plan{Name: "custom", Steps: steps}, nil
}

// checkConstructionOrder rejects construction steps that would run after
// the evaluator is armed. Arming records the INITIAL metrics of the
// finished construction, which every later stage record and cycle check
// compares against. A cascade pass, a gated step and a cycle group all arm
// the evaluator before they run.
func checkConstructionOrder(steps []Step) error {
	armedBy := ""
	for _, st := range steps {
		if st.Cycle != nil {
			for _, in := range st.Cycle {
				if isConstruction(in.Pass) {
					return fmt.Errorf("core: construction pass %q cannot run in a cycle group", in.Pass)
				}
			}
			armedBy = st.String()
			continue
		}
		if isConstruction(st.Pass) {
			switch {
			case armedBy != "":
				return fmt.Errorf("core: construction pass %q cannot follow cascade step %q", st.Pass, armedBy)
			case st.Gate != nil:
				return fmt.Errorf("core: construction pass %q cannot be gated (a gate evaluates the finished tree)", st.Pass)
			}
		}
		if lookupPass(st.Pass).cascade || st.Gate != nil {
			armedBy = st.String()
		}
	}
	return nil
}

func parseSteps(spec string) ([]Step, error) {
	parts, err := splitTop(spec)
	if err != nil {
		return nil, err
	}
	var steps []Step
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		st, err := parseStep(part)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
	return steps, nil
}

// splitTop splits a spec on commas outside parentheses.
func splitTop(s string) ([]string, error) {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("core: unbalanced ')' in plan spec %q", s)
			}
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("core: unclosed '(' in plan spec %q", s)
	}
	return append(parts, s[start:]), nil
}

func parseStep(tok string) (Step, error) {
	if strings.HasPrefix(canon(tok), "cycle(") {
		return parseCycle(tok)
	}
	rest := tok
	var gate *Gate
	if q := strings.IndexByte(rest, '?'); q >= 0 {
		g, err := parseGate(rest[q+1:])
		if err != nil {
			return Step{}, err
		}
		gate = &g
		rest = rest[:q]
	}
	rounds := 0
	if c := strings.IndexByte(rest, ':'); c >= 0 {
		n, err := strconv.Atoi(strings.TrimSpace(rest[c+1:]))
		if err != nil || n < 1 {
			return Step{}, fmt.Errorf("core: bad round budget in step %q (want a positive integer)", tok)
		}
		if n != opt.DefaultMaxRounds { // the default budget pinned is unpinned
			rounds = n
		}
		rest = rest[:c]
	}
	name := canon(rest)
	if name == "" {
		return Step{}, fmt.Errorf("core: empty pass name in step %q", tok)
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' && r != '_' {
			return Step{}, fmt.Errorf("core: invalid pass name %q", name)
		}
	}
	if lookupPass(name) == nil {
		return Step{}, fmt.Errorf("core: unknown pass %q (known: %s)", name, strings.Join(passNames(), ", "))
	}
	return Step{Pass: name, Rounds: rounds, Gate: gate}, nil
}

func parseCycle(tok string) (Step, error) {
	open := strings.IndexByte(tok, '(')
	closing := strings.LastIndexByte(tok, ')')
	if closing < open {
		return Step{}, fmt.Errorf("core: unclosed cycle group in %q", tok)
	}
	inner, err := parseSteps(tok[open+1 : closing])
	if err != nil {
		return Step{}, err
	}
	if len(inner) == 0 {
		return Step{}, fmt.Errorf("core: empty cycle group in %q", tok)
	}
	for _, st := range inner {
		if st.Cycle != nil {
			return Step{}, fmt.Errorf("core: nested cycle groups are not supported (%q)", tok)
		}
	}
	repeat := 0
	if suffix := strings.TrimSpace(tok[closing+1:]); suffix != "" {
		low := canon(suffix)
		if !strings.HasPrefix(low, "x") {
			return Step{}, fmt.Errorf("core: bad cycle suffix %q (want xN)", suffix)
		}
		n, err := strconv.Atoi(low[1:])
		if err != nil || n < 1 {
			return Step{}, fmt.Errorf("core: bad cycle count %q (want a positive integer)", suffix)
		}
		if n != DefaultCycles { // the default budget pinned is unpinned
			repeat = n
		}
	}
	return Step{Cycle: inner, Repeat: repeat}, nil
}

func parseGate(s string) (Gate, error) {
	i := strings.IndexAny(s, "<>")
	if i < 0 {
		return Gate{}, fmt.Errorf("core: bad gate %q (want metric>value or metric<value)", s)
	}
	metric := canon(s[:i])
	if _, ok := gateMetrics[metric]; !ok {
		return Gate{}, fmt.Errorf("core: unknown gate metric %q (want skew, clr, lat, slew, viol or cap)", metric)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s[i+1:]), 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		// A NaN gate would silently disable its pass (every comparison
		// is false), and either value would enter the cache key.
		err = fmt.Errorf("non-finite number")
	}
	if err != nil {
		return Gate{}, fmt.Errorf("core: bad gate value in %q: %v", s, err)
	}
	return Gate{Metric: metric, Less: s[i] == '<', Value: v}, nil
}

// canon returns the canonical form of a pass or stage name: trimmed and
// ASCII-lowercased. It is the one normalization used everywhere a pass or
// plan name is compared: plan parsing and built-in plan lookups.
func canon(s string) string {
	s = strings.TrimSpace(s)
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
