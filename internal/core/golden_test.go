package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"contango/internal/bench"
	"contango/internal/ctree/ctreetest"
)

// goldenPath holds one "<case> <sha256>" line per construction case. Each
// digest is the SHA-256 of the case's EncodeResult envelope with Elapsed
// zeroed. The file was generated while a pointer-tree construction path
// still existed beside the arena one and both produced these envelopes; it
// pins every construction layer (DME, legalization, the buffering sweep,
// polarity correction) bit for bit.
const goldenPath = "testdata/construction.golden"

// constructionPlan is the construction prelude the golden cases run.
const constructionPlan = "zst,legalize,buffer,polarity"

type goldenCase struct {
	name string
	run  func() (*Result, error)
}

func ispdGoldenCases() []goldenCase {
	var cases []goldenCase
	for _, name := range bench.ISPD09Names() {
		name := name
		cases = append(cases, goldenCase{"construct/" + name, func() (*Result, error) {
			b, err := bench.ISPD09(name)
			if err != nil {
				return nil, err
			}
			return Synthesize(b, Options{FastSim: true, Plan: constructionPlan})
		}})
	}
	for _, name := range bench.ISPD09Names() {
		for _, kind := range []BaselineKind{BaselineNoOpt, BaselineGreedy, BaselineBST} {
			name, kind := name, kind
			cases = append(cases, goldenCase{fmt.Sprintf("baseline/%s/%v", name, kind), func() (*Result, error) {
				b, err := bench.ISPD09(name)
				if err != nil {
					return nil, err
				}
				return SynthesizeBaseline(b, kind, Options{FastSim: true})
			}})
		}
	}
	return cases
}

func randomGoldenCases() []goldenCase {
	var cases []goldenCase
	for _, seed := range []int64{1, 7, 23} {
		for _, n := range []int{12, 40, 90} {
			seed, n := seed, n
			cases = append(cases, goldenCase{fmt.Sprintf("random/seed%d_n%d", seed, n), func() (*Result, error) {
				return Synthesize(randomBench(seed, n), Options{FastSim: true, Plan: constructionPlan})
			}})
		}
	}
	return cases
}

// envelopeDigest encodes r with Elapsed zeroed (the only wall-clock field)
// and returns the SHA-256 of the envelope.
func envelopeDigest(t *testing.T, r *Result) string {
	t.Helper()
	cp := *r
	cp.Elapsed = 0
	var buf bytes.Buffer
	if err := EncodeResult(&buf, &cp); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// checkGolden runs each case as a parallel subtest (named after the part
// of the case name that follows prefix) and compares its envelope digest
// with the golden file.
func checkGolden(t *testing.T, cases []goldenCase, prefix string) {
	ctreetest.RequireAMD64(t)
	golden := ctreetest.Golden(t, goldenPath)
	for _, tc := range cases {
		tc := tc
		t.Run(strings.TrimPrefix(tc.name, prefix), func(t *testing.T) {
			t.Parallel()
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			ctreetest.Check(t, golden, tc.name, envelopeDigest(t, res))
		})
	}
}

// TestConstructionGolden pins the ISPD09 construction prelude and the 21
// baseline flows.
func TestConstructionGolden(t *testing.T) {
	checkGolden(t, ispdGoldenCases(), "")
}

// TestArenaConstructionParityRandom pins construction on the seeded random
// obstructed benchmarks of randomBench.
func TestArenaConstructionParityRandom(t *testing.T) {
	checkGolden(t, randomGoldenCases(), "random/")
}
