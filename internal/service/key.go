package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"contango/internal/bench"
	"contango/internal/core"
	"contango/internal/opt"
	"contango/internal/tech"
)

// cornerFP and techFP mirror the technology model's pre-corner-set field
// layout, so the fingerprint rendering of a default (underated, legacy
// roles) technology is byte-identical to what %+v of the old Tech struct
// produced — which is what keeps result-cache keys persisted by earlier
// releases valid. Corner-set state (derates, weights, roles, the MC flag)
// is appended separately, and only when it differs from the legacy
// defaults.
type cornerFP struct {
	Name string
	Vdd  float64
}

type techFP struct {
	Wires       []tech.WireType
	Inverters   []tech.InverterType
	Corners     []cornerFP
	Vt          float64
	VddRef      float64
	SlewLimit   float64
	MaxParallel int
	SlewSafeCap float64
}

// techFingerprint renders everything about a technology model that shapes
// results. The legacy mirror comes first; corner-set extensions append
// only non-default state so default technologies hash exactly as before.
func techFingerprint(t *tech.Tech) string {
	fp := techFP{
		Wires:       t.Wires,
		Inverters:   t.Inverters,
		Corners:     make([]cornerFP, len(t.Corners)),
		Vt:          t.Vt,
		VddRef:      t.VddRef,
		SlewLimit:   t.SlewLimit,
		MaxParallel: t.MaxParallel,
		SlewSafeCap: t.SlewSafeCap,
	}
	var ext strings.Builder
	for i, c := range t.Corners {
		fp.Corners[i] = cornerFP{Name: c.Name, Vdd: c.Vdd}
		if c.RDerate != 0 || c.CDerate != 0 || c.Weight != 0 {
			fmt.Fprintf(&ext, "|c%d=r%g,c%g,w%g", i, c.RDerate, c.CDerate, c.Weight)
		}
	}
	if t.RefIdx != 0 || t.WorstIdx != 0 {
		fmt.Fprintf(&ext, "|ref=%d,worst=%d", t.RefIdx, t.WorstIdx)
	}
	if t.MCSet {
		ext.WriteString("|mc")
	}
	return fmt.Sprintf("%+v", fp) + ext.String()
}

// OptionsFingerprint canonicalizes the knobs of a synthesis configuration
// that influence the result and renders them as a stable string. The
// options are resolved through core.Options.Resolve first — the same code
// the flow itself runs on — so the zero Options and an Options spelling
// out the paper's defaults fingerprint identically, and a future change to
// a default can never alias cached results computed under the old one.
// Function hooks (Log, SpanHook, WrapEval) and the engine's mutable run
// counter never leak in. Parallelism is deliberately excluded: the
// incremental evaluator produces results identical at any worker count, so
// runs differing only in worker budget share one cache slot.
func OptionsFingerprint(o core.Options) string {
	r := o.Resolve()
	var b strings.Builder
	techSum := sha256.Sum256([]byte(techFingerprint(r.Tech)))
	fmt.Fprintf(&b, "tech=%s", hex.EncodeToString(techSum[:8]))
	fmt.Fprintf(&b, ";eng=%g,%g,%g,%g", r.Engine.MaxSeg, r.Engine.Dt, r.Engine.SourceSlew, r.Engine.SettleTol)
	// rounds and cycles are the budgets of unpinned plan steps and cycle
	// groups, which the canonical plan spec leaves implicit. bufstep=0,
	// fulleval=false and the empty skip= below stand for since-removed
	// knobs at their defaults (a buffer-spacing step, the whole-tree
	// evaluator switch, the skip set); the literals keep default keys
	// byte-identical.
	fmt.Fprintf(&b, ";gamma=%g;rounds=%d;cycles=%d;bufstep=0;fulleval=false",
		r.Gamma, opt.DefaultMaxRounds, core.DefaultCycles)
	// Resolve canonicalized the plan to its expanded spec, so a named plan
	// and its spelled-out equivalent share one cache slot while any two
	// different cascades address differently.
	fmt.Fprintf(&b, ";plan=%s", r.Plan)
	b.WriteString(";ladder=")
	for i, c := range r.Ladder() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%dx%s(%g/%g/%g)", c.N, c.Type.Name, c.Type.Cin, c.Type.Cout, c.Type.Rout)
	}
	b.WriteString(";skip=")
	// ECO runs extend the key with the base result's key and the delta's
	// content address, appended only when set: every non-ECO fingerprint —
	// and therefore every existing cache key — stays byte-identical.
	if r.ECO != nil {
		fmt.Fprintf(&b, ";eco=%s", r.ECO.Fingerprint())
	}
	return b.String()
}

// JobKey returns the content address of a synthesis run: a SHA-256 over
// the benchmark's canonical serialization and the options fingerprint.
// Equal keys mean equal results, which is what the result cache and
// in-flight deduplication key on.
func JobKey(b *bench.Benchmark, o core.Options) string {
	h := sha256.New()
	h.Write([]byte(b.Hash()))
	h.Write([]byte{0})
	h.Write([]byte(OptionsFingerprint(o)))
	return hex.EncodeToString(h.Sum(nil))
}
