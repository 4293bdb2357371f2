// Package eco implements engineering-change-order (ECO) re-synthesis: a
// typed Delta describing a small netlist perturbation (moved, added and
// removed sinks, a changed capacitance budget) with a canonical text wire
// form, and Apply, which replays that delta against the SoA arena of an
// already-synthesized clock tree using locality-scoped repair instead of a
// from-scratch rebuild. Real CTS flows are dominated by exactly these
// loops — a handful of sinks shift against a finished placement — and the
// delta path skips construction (DME, buffering, legalization), which
// dominates large-instance profiles.
package eco

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"contango/internal/bench"
	"contango/internal/dme"
	"contango/internal/geom"
)

// SinkMove relocates an existing sink to a new placement.
type SinkMove struct {
	Name string
	Loc  geom.Point
}

// SinkAdd introduces a new sink.
type SinkAdd struct {
	Name string
	Loc  geom.Point
	Cap  float64 // load capacitance, fF
}

// Delta is one engineering change order against a synthesized benchmark:
// disjoint sets of moved, added and removed sinks, plus an optional new
// total-capacitance budget (0 keeps the base budget). The zero Delta is
// valid and empty.
type Delta struct {
	Moved    []SinkMove
	Added    []SinkAdd
	Removed  []string
	CapLimit float64 // new capacitance budget, fF; 0 = unchanged
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool {
	return len(d.Moved) == 0 && len(d.Added) == 0 && len(d.Removed) == 0 && d.CapLimit == 0
}

// Size returns the number of sink-level edits the delta carries.
func (d *Delta) Size() int { return len(d.Moved) + len(d.Added) + len(d.Removed) }

// canon sorts each edit class by sink name. Every serialization and
// fingerprint goes through the canonical order, so two deltas describing
// the same change in different line orders are one delta.
func (d *Delta) canon() {
	sort.Slice(d.Moved, func(i, j int) bool { return d.Moved[i].Name < d.Moved[j].Name })
	sort.Slice(d.Added, func(i, j int) bool { return d.Added[i].Name < d.Added[j].Name })
	sort.Strings(d.Removed)
}

// String renders the canonical wire form:
//
//	move <name> <x> <y>
//	add <name> <x> <y> <cap_fF>
//	remove <name>
//	caplimit <fF>
//
// Lines are sorted by sink name within each directive class; classes
// appear in the fixed order above; caplimit is present only when set.
// ParseDelta(String()) round-trips exactly.
func (d *Delta) String() string {
	d.canon()
	var b strings.Builder
	for _, m := range d.Moved {
		fmt.Fprintf(&b, "move %s %g %g\n", m.Name, m.Loc.X, m.Loc.Y)
	}
	for _, a := range d.Added {
		fmt.Fprintf(&b, "add %s %g %g %g\n", a.Name, a.Loc.X, a.Loc.Y, a.Cap)
	}
	for _, r := range d.Removed {
		fmt.Fprintf(&b, "remove %s\n", r)
	}
	if d.CapLimit != 0 {
		fmt.Fprintf(&b, "caplimit %g\n", d.CapLimit)
	}
	return b.String()
}

// Fingerprint returns the content address of the delta: a SHA-256 over the
// canonical wire form. Equal fingerprints mean semantically equal deltas,
// which is what the service's extended cache key relies on.
func (d *Delta) Fingerprint() string {
	sum := sha256.Sum256([]byte(d.String()))
	return hex.EncodeToString(sum[:])
}

// ParseDelta reads the text form written by String. Numbers must be
// finite. Blank lines and lines starting with '#' are ignored. Each sink may appear in at most one
// directive; a second mention is an error, as is a repeated caplimit.
func ParseDelta(r io.Reader) (*Delta, error) {
	d := &Delta{}
	seen := map[string]string{}
	claim := func(name, directive string, lineNo int) error {
		if name == "" {
			return fmt.Errorf("eco: line %d: empty sink name", lineNo)
		}
		if prev, dup := seen[name]; dup {
			return fmt.Errorf("eco: line %d: sink %q already named by a %s directive", lineNo, name, prev)
		}
		seen[name] = directive
		return nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo := 0
	capSet := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		bad := func(why string) error {
			return fmt.Errorf("eco: line %d: %s: %q", lineNo, why, line)
		}
		nums := func(ss []string) ([]float64, error) {
			out := make([]float64, len(ss))
			for i, s := range ss {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return nil, bad("bad number")
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, bad("non-finite number")
				}
				out[i] = v
			}
			return out, nil
		}
		switch f[0] {
		case "move":
			if len(f) != 4 {
				return nil, bad("move needs name x y")
			}
			v, err := nums(f[2:])
			if err != nil {
				return nil, err
			}
			if err := claim(f[1], "move", lineNo); err != nil {
				return nil, err
			}
			d.Moved = append(d.Moved, SinkMove{Name: f[1], Loc: geom.Pt(v[0], v[1])})
		case "add":
			if len(f) != 5 {
				return nil, bad("add needs name x y cap")
			}
			v, err := nums(f[2:])
			if err != nil {
				return nil, err
			}
			if v[2] < 0 {
				return nil, bad("negative sink cap")
			}
			if err := claim(f[1], "add", lineNo); err != nil {
				return nil, err
			}
			d.Added = append(d.Added, SinkAdd{Name: f[1], Loc: geom.Pt(v[0], v[1]), Cap: v[2]})
		case "remove":
			if len(f) != 2 {
				return nil, bad("remove needs name")
			}
			if err := claim(f[1], "remove", lineNo); err != nil {
				return nil, err
			}
			d.Removed = append(d.Removed, f[1])
		case "caplimit":
			if len(f) != 2 {
				return nil, bad("caplimit needs 1 value")
			}
			v, err := nums(f[1:])
			if err != nil {
				return nil, err
			}
			if v[0] <= 0 {
				return nil, bad("caplimit must be positive")
			}
			if capSet {
				return nil, bad("caplimit repeated")
			}
			capSet = true
			d.CapLimit = v[0]
		default:
			return nil, bad("unknown directive")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("eco: read delta: %w", err)
	}
	d.canon()
	return d, nil
}

// Perturb applies the delta to a benchmark, returning the perturbed copy
// the ECO'd tree must serve: moved sinks keep their position in the sink
// list with updated placements, removed sinks are dropped, added sinks are
// appended in canonical (name) order, and a set CapLimit replaces the
// budget. The base benchmark is not modified. Every referenced sink must
// exist exactly once (and added names must be fresh) — a delta produced
// against a different base is rejected, not silently misapplied.
func (d *Delta) Perturb(b *bench.Benchmark) (*bench.Benchmark, error) {
	d.canon()
	byName := make(map[string]int, len(b.Sinks))
	for i, s := range b.Sinks {
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("eco: benchmark %s has duplicate sink name %q", b.Name, s.Name)
		}
		byName[s.Name] = i
	}
	moved := make(map[string]geom.Point, len(d.Moved))
	for _, m := range d.Moved {
		if _, ok := byName[m.Name]; !ok {
			return nil, fmt.Errorf("eco: move: no sink %q in benchmark %s", m.Name, b.Name)
		}
		if !b.Die.Contains(m.Loc) {
			return nil, fmt.Errorf("eco: move: sink %q target %v is outside the die", m.Name, m.Loc)
		}
		moved[m.Name] = m.Loc
	}
	removed := make(map[string]bool, len(d.Removed))
	for _, r := range d.Removed {
		if _, ok := byName[r]; !ok {
			return nil, fmt.Errorf("eco: remove: no sink %q in benchmark %s", r, b.Name)
		}
		removed[r] = true
	}
	cp := b.Clone()
	cp.Sinks = cp.Sinks[:0]
	for _, s := range b.Sinks {
		if removed[s.Name] {
			continue
		}
		if loc, ok := moved[s.Name]; ok {
			s.Loc = loc
		}
		cp.Sinks = append(cp.Sinks, s)
	}
	for _, a := range d.Added {
		if _, dup := byName[a.Name]; dup {
			return nil, fmt.Errorf("eco: add: sink %q already exists in benchmark %s", a.Name, b.Name)
		}
		if !b.Die.Contains(a.Loc) {
			return nil, fmt.Errorf("eco: add: sink %q at %v is outside the die", a.Name, a.Loc)
		}
		cp.Sinks = append(cp.Sinks, dme.Sink{Name: a.Name, Loc: a.Loc, Cap: a.Cap})
	}
	if len(cp.Sinks) == 0 {
		return nil, fmt.Errorf("eco: delta leaves benchmark %s with no sinks", b.Name)
	}
	if d.CapLimit != 0 {
		cp.CapLimit = d.CapLimit
	}
	return cp, nil
}
