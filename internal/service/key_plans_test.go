package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"contango/internal/core"
	"contango/internal/opt"
)

// randomPlanSpellings draws a random valid plan from the plan grammar —
// cascade passes with optional round budgets and gates, and cycle groups
// with optional repeat counts — and returns two spellings of it: one
// leaving every default budget implicit, one pinning it
// (":opt.DefaultMaxRounds", "xDefaultCycles") in random letter case.
func randomPlanSpellings(rng *rand.Rand) (implicit, pinned string) {
	cascade := []string{"tbsz", "twsz", "twsn", "bwsn"}
	step := func() (string, string) {
		name := cascade[rng.Intn(len(cascade))]
		a, b := name, name
		if rng.Intn(2) == 0 {
			b = strings.ToUpper(name)
		}
		switch rng.Intn(3) {
		case 0: // default budget
			b += fmt.Sprintf(":%d", opt.DefaultMaxRounds)
		case 1: // pinned non-default budget
			n := 1 + rng.Intn(3)
			a += fmt.Sprintf(":%d", n)
			b += fmt.Sprintf(" : %d", n)
		}
		if rng.Intn(4) == 0 {
			a += "?skew>5"
			b += "?skew>5"
		}
		return a, b
	}
	var as, bs []string
	if rng.Intn(2) == 0 { // the construction prelude, spelled or implied
		as = append(as, "zst,legalize,buffer,polarity")
		bs = append(bs, "zst,legalize,buffer,polarity")
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		if rng.Intn(3) > 0 {
			a, b := step()
			as, bs = append(as, a), append(bs, b)
			continue
		}
		var ia, ib []string
		for k := 1 + rng.Intn(3); k > 0; k-- {
			a, b := step()
			ia, ib = append(ia, a), append(ib, b)
		}
		a := "cycle(" + strings.Join(ia, ",") + ")"
		b := "cycle(" + strings.Join(ib, ",") + ")"
		switch rng.Intn(3) {
		case 0:
			b += fmt.Sprintf("x%d", core.DefaultCycles)
		case 1:
			a += "x2"
			b += "X2"
		}
		as, bs = append(as, a), append(bs, b)
	}
	return strings.Join(as, ","), strings.Join(bs, ",")
}

// TestEquivalentPlansShareKeyAndEnvelope: specs with equal canonical forms
// give equal job keys, specs with different ones give different keys, and
// equivalent specs synthesize byte-identical envelopes (FastSim, wall
// time zeroed).
func TestEquivalentPlansShareKeyAndEnvelope(t *testing.T) {
	b := tinyBench("plans", 0)
	rng := rand.New(rand.NewSource(29))
	keyOf := map[string]string{} // canonical plan -> job key
	for i := 0; i < 200; i++ {
		implicit, pinned := randomPlanSpellings(rng)
		pa, err := core.ParsePlan(implicit)
		if err != nil {
			t.Fatalf("generated spec %q: %v", implicit, err)
		}
		pb, err := core.ParsePlan(pinned)
		if err != nil {
			t.Fatalf("generated spec %q: %v", pinned, err)
		}
		if pa.String() != pb.String() {
			t.Fatalf("%q and %q render %q and %q", implicit, pinned, pa.String(), pb.String())
		}
		ka := JobKey(b, core.Options{FastSim: true, Plan: implicit})
		if kb := JobKey(b, core.Options{FastSim: true, Plan: pinned}); ka != kb {
			t.Fatalf("%q and %q share the canonical plan %q but key %s and %s", implicit, pinned, pa.String(), ka, kb)
		}
		if prev, ok := keyOf[pa.String()]; ok && prev != ka {
			t.Fatalf("plan %q keyed %s and %s", pa.String(), prev, ka)
		}
		keyOf[pa.String()] = ka
	}
	seen := map[string]string{}
	for plan, key := range keyOf {
		if other, ok := seen[key]; ok {
			t.Fatalf("plans %q and %q share key %s", plan, other, key)
		}
		seen[key] = plan
	}

	// Envelopes: a few equivalent pairs run end to end.
	for i := 0; i < 3; i++ {
		implicit, pinned := randomPlanSpellings(rng)
		var envs [2][]byte
		for k, spec := range []string{implicit, pinned} {
			res, err := core.Synthesize(b, core.Options{FastSim: true, Plan: spec, Parallelism: 1})
			if err != nil {
				t.Fatalf("%q: %v", spec, err)
			}
			res.Elapsed = 0 // wall-clock is the one field a rerun may change
			var buf bytes.Buffer
			if err := core.EncodeResult(&buf, res); err != nil {
				t.Fatal(err)
			}
			envs[k] = buf.Bytes()
		}
		if !bytes.Equal(envs[0], envs[1]) {
			t.Fatalf("%q and %q synthesize different envelopes", implicit, pinned)
		}
	}
}
