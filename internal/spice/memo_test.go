package spice

import (
	"math/rand"
	"reflect"
	"testing"

	"contango/internal/analysis"
	"contango/internal/corners"
	"contango/internal/ctree"
	"contango/internal/tech"
)

// memoHarness drives one Incremental and checks every evaluation against a
// fresh whole-tree Engine with the same parameters.
type memoHarness struct {
	t  *testing.T
	tr *ctree.Tree
	ie *Incremental
}

// eval evaluates cs through the memo and requires every result to equal
// the fresh engine's exactly. It reports whether the call was a memo hit.
func (h *memoHarness) eval(cs []tech.Corner) ([]*analysis.Result, bool) {
	h.t.Helper()
	hits := h.ie.Stats.NetHits
	got, err := h.ie.EvaluateCorners(h.tr, cs)
	if err != nil {
		h.t.Fatal(err)
	}
	fresh := &Engine{MaxSeg: h.ie.Eng.MaxSeg, Dt: h.ie.Eng.Dt, SourceSlew: h.ie.Eng.SourceSlew, SettleTol: h.ie.Eng.SettleTol}
	want, err := fresh.EvaluateCorners(h.tr, cs)
	if err != nil {
		h.t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		h.t.Fatalf("results for %d corners differ from a fresh engine (memo hit: %v)", len(cs), h.ie.Stats.NetHits > hits)
	}
	switch d := h.ie.Stats.NetHits - hits; d {
	case 0:
		return got, false
	case len(cs):
		return got, true
	default:
		h.t.Fatalf("%d network hits for %d corners", d, len(cs))
		return nil, false
	}
}

// TestNetMemoMatchesFreshEngine: the network memo serves only networks it
// evaluated before, and what it serves equals a fresh whole-tree
// evaluation exactly — across the cascade's revisiting patterns, callers
// that mutate results, Reset and eviction.
func TestNetMemoMatchesFreshEngine(t *testing.T) {
	t.Run("revisits", memoRevisits)
	t.Run("fresh-maps", memoFreshMaps)
	t.Run("reset", memoResetMisses)
	t.Run("eviction", memoEvictsLeastRecentlyUsed)
}

// memoRevisits drives random staged trees through the cascade's revisiting
// patterns — probe then revert, a trial repeated after other trials,
// single-corner and corner-subset calls — at the ispd09 pair and the pvt5
// set, serially and in parallel.
func memoRevisits(t *testing.T) {
	base := tech.Default45()
	pvt, err := corners.Build("pvt5", base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range []*tech.Tech{base, pvt.Apply(base)} {
		for _, par := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(7 + par + len(tk.Corners))))
			tr := randomStagedTree(rng, tk)
			h := &memoHarness{t: t, tr: tr, ie: NewIncremental(tr, New(), par)}
			all := tk.Corners
			subset := all[len(all)-1:]
			if len(all) > 2 {
				subset = all[1:3]
			}
			a := tr.Arena()
			for round := 0; round < 3; round++ {
				start := a.Clone()
				h.eval(all)
				var trials []*ctree.Arena
				for k := 0; k < 2; k++ {
					// randomMove may leave the network as it was; the
					// snake on a sink edge makes every trial new.
					randomMove(rng, tr)
					a.Snake[a.Sinks()[rng.Intn(len(a.Sinks()))]] += 25
					h.eval(all)
					trials = append(trials, a.Clone())
					a.CopyFrom(start) // revert the probe
					if _, hit := h.eval(all); !hit {
						t.Fatalf("tk %d corners par %d round %d: probe revert missed the memo", len(all), par, round)
					}
				}
				// The first trial again, after the second.
				a.CopyFrom(trials[0])
				if _, hit := h.eval(all); !hit {
					t.Fatalf("tk %d corners par %d round %d: repeated trial missed the memo", len(all), par, round)
				}
				// A corner list is part of the key: a subset misses once,
				// then hits; so does one corner alone.
				for _, cs := range [][]tech.Corner{subset, all[:1]} {
					if _, hit := h.eval(cs); hit {
						t.Fatalf("first %d-corner call hit a memo filled with %d-corner calls", len(cs), len(all))
					}
					if _, hit := h.eval(cs); !hit {
						t.Fatalf("repeated %d-corner call missed the memo", len(cs))
					}
				}
				// Accept the second trial and go on from there.
				a.CopyFrom(trials[1])
			}
			if h.ie.Stats.NetHits == 0 {
				t.Fatalf("tk %d corners par %d: no network hits", len(all), par)
			}
		}
	}
}

// memoFreshMaps: a hit builds fresh result slices, so a caller that
// mutates a returned result cannot change what a later hit returns.
func memoFreshMaps(t *testing.T) {
	tk := tech.Default45()
	tr := randomStagedTree(rand.New(rand.NewSource(3)), tk)
	h := &memoHarness{t: t, tr: tr, ie: NewIncremental(tr, New(), 1)}
	for k := 0; k < 3; k++ {
		rs, hit := h.eval(tk.Corners)
		if hit != (k > 0) {
			t.Fatalf("call %d: hit %v", k, hit)
		}
		for _, r := range rs {
			for id := range r.Rise {
				r.Rise[id] = -1
				r.StageSlew[id] = 0
				r.SinkSlew[id] = 1
				r.Has[id] = 0
			}
			r.MaxSlew, r.SlewViol = -1, -1
		}
	}
}

// memoResetMisses: Reset drops the memo with the stage cache, so
// after retuning the engine the same network is integrated anew.
func memoResetMisses(t *testing.T) {
	tk := tech.Default45()
	tr := randomStagedTree(rand.New(rand.NewSource(4)), tk)
	h := &memoHarness{t: t, tr: tr, ie: NewIncremental(tr, New(), 2)}
	h.eval(tk.Corners)
	if _, hit := h.eval(tk.Corners); !hit {
		t.Fatal("unchanged tree missed the memo")
	}
	h.ie.Eng.Dt = 0.5
	h.ie.Reset()
	sims := h.ie.Stats.StagesSim
	if _, hit := h.eval(tk.Corners); hit {
		t.Fatal("evaluation after Reset hit the memo")
	}
	if h.ie.Stats.StagesSim == sims {
		t.Fatal("evaluation after Reset integrated nothing")
	}
}

// memoEvictsLeastRecentlyUsed: over its byte budget the memo drops
// the least recently used network, and only that one.
func memoEvictsLeastRecentlyUsed(t *testing.T) {
	tk := tech.Default45()
	tr := randomStagedTree(rand.New(rand.NewSource(6)), tk)
	a := tr.Arena()
	sink := a.Sinks()[0]
	// Snaking one sink edge keeps the stage and sink counts, so every
	// state below costs the memo the same number of bytes.
	state := func(k int) { a.Snake[sink] = float64(50 * k) }
	h := &memoHarness{t: t, tr: tr, ie: NewIncremental(tr, New(), 1)}
	memo := h.ie.memo

	state(0)
	h.eval(tk.Corners)
	state(1)
	h.eval(tk.Corners)
	memo.budget = memo.bytes // room for exactly two networks
	state(0)
	if _, hit := h.eval(tk.Corners); !hit {
		t.Fatal("network 0 missed a memo within budget")
	}
	state(2) // evicts network 1, the least recently used
	h.eval(tk.Corners)
	if memo.bytes > memo.budget {
		t.Fatalf("memo holds %d bytes over its %d budget", memo.bytes, memo.budget)
	}
	state(0)
	if _, hit := h.eval(tk.Corners); !hit {
		t.Fatal("recently used network 0 was evicted")
	}
	state(1)
	if _, hit := h.eval(tk.Corners); hit {
		t.Fatal("least recently used network 1 survived eviction")
	}

	// A network larger than the whole budget is not memoized, and adding
	// it leaves the others alone.
	memo.budget = memo.bytes/2 - 1 // below one network's size
	held := memo.bytes
	state(3)
	h.eval(tk.Corners)
	if memo.bytes != held {
		t.Fatalf("memo holds %d bytes after an oversized network, want %d", memo.bytes, held)
	}
	state(3)
	if _, hit := h.eval(tk.Corners); hit {
		t.Fatal("a network larger than the budget was memoized")
	}
}

// TestRevertedTrialMatchesBaseline: after trials that are evaluated and
// then undone with Revert, re-evaluating the restored tree integrates no
// stage and equals a fresh evaluation, even with the network memo off and
// two trials through the whole cone in a row (which would otherwise push
// the baseline's transients out of the two-generation stage cache).
func TestRevertedTrialMatchesBaseline(t *testing.T) {
	base := tech.Default45()
	pvt, err := corners.Build("pvt5", base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range []*tech.Tech{base, pvt.Apply(base)} {
		for _, par := range []int{1, 4} {
			// resims replays the sequence and returns the stages the final
			// re-evaluation of the baseline integrated.
			resims := func(revert bool) int {
				tr := randomStagedTree(rand.New(rand.NewSource(int64(5+par))), tk)
				h := &memoHarness{t: t, tr: tr, ie: NewIncremental(tr, New(), par)}
				h.ie.memo = newNetMemo(0) // nothing fits: every call misses
				a := tr.Arena()
				start := a.Clone()
				h.eval(tk.Corners)
				trunk := a.Children(a.Root())[0]
				for k := 1; k <= 2; k++ {
					a.Snake[trunk] += 25 * float64(k)
					h.eval(tk.Corners)
					a.CopyFrom(start)
					if revert {
						h.ie.Revert()
					}
				}
				sims := h.ie.Stats.StagesSim
				h.eval(tk.Corners)
				return h.ie.Stats.StagesSim - sims
			}
			if n := resims(true); n != 0 {
				t.Errorf("%d corners, par %d: re-evaluating the restored tree integrated %d stages", len(tk.Corners), par, n)
			}
			if n := resims(false); n == 0 {
				t.Errorf("%d corners, par %d: without Revert the baseline survived both trials; the case shows nothing", len(tk.Corners), par)
			}
		}
	}
}
