package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"contango/internal/bench"
	"contango/internal/core"
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
// Map iteration order, function hooks (Log) and the engine's mutable run
// counter never leak in. Parallelism is deliberately excluded: the
// incremental evaluator produces results identical at any worker count, so
// runs differing only in worker budget share one cache slot. FullEval is
// included even though metrics match too — a caller explicitly requesting
// the reference evaluation path must actually run it (and see its zeroed
// stage_sims/stage_reuses counters), not be served a cached incremental
// result.
func OptionsFingerprint(o core.Options) string {
	r := o.Resolve()
	var b strings.Builder
	techSum := sha256.Sum256([]byte(techFingerprint(r.Tech)))
	fmt.Fprintf(&b, "tech=%s", hex.EncodeToString(techSum[:8]))
	fmt.Fprintf(&b, ";eng=%g,%g,%g,%g", r.Engine.MaxSeg, r.Engine.Dt, r.Engine.SourceSlew, r.Engine.SettleTol)
	fmt.Fprintf(&b, ";gamma=%g;rounds=%d;cycles=%d;bufstep=%g;fulleval=%t",
		r.Gamma, r.MaxRounds, r.Cycles, r.BufferStep, r.FullEval)
	// Resolve canonicalized the plan to its expanded spec, so a named plan
	// and its spelled-out equivalent share one cache slot while any two
	// different cascades address differently.
	fmt.Fprintf(&b, ";plan=%s", r.Plan)
	b.WriteString(";ladder=")
	for i, c := range r.Ladder {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%dx%s(%g/%g/%g)", c.N, c.Type.Name, c.Type.Cin, c.Type.Cout, c.Type.Rout)
	}
	// Skipped stages, sorted for stable map order and normalized with the
	// same canonical helper the pipeline's own skip lookups use.
	var skips []string
	for name, on := range r.SkipStages {
		if on {
			skips = append(skips, core.Canon(name))
		}
	}
	sort.Strings(skips)
	fmt.Fprintf(&b, ";skip=%s", strings.Join(skips, ","))
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
