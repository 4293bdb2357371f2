// Package dme constructs zero-skew clock trees: a topology generator
// (nearest-neighbor clustering in the style of Edahiro for small instances,
// means-and-medians bisection for large ones) followed by bottom-up
// exact-zero-skew merging under the Elmore delay model (Tsay's balance-point
// method, the ZST/DME family the paper builds its initial trees with).
//
// The produced tree has zero Elmore skew by construction: at every merge the
// tapping point is placed on the Manhattan path between the two subtree
// roots so that both sides see equal Elmore delay; when one side is too fast
// for any tapping point, its wire is elongated (snaked) to restore balance.
package dme

import (
	"math"

	"contango/internal/geom"
	"contango/internal/tech"
)

// Sink is a clock endpoint to be connected.
type Sink struct {
	Loc  geom.Point
	Cap  float64 // load capacitance, fF
	Name string
}

// Options controls tree construction.
type Options struct {
	// Topology selects the pairing strategy: "auto" (default), "nn"
	// (greedy nearest-neighbor clustering) or "mmm" (means-and-medians
	// recursive bisection). Auto uses nn up to nnThreshold sinks.
	Topology string

	// NoBalance disables Elmore balancing: tapping points land at the
	// geometric midpoint and no snaking is added. This models simpler
	// contest-style constructors and is used only by baseline flows.
	NoBalance bool
	// NoSnake keeps balanced tapping but never elongates wires (a
	// bounded-skew rather than zero-skew merge).
	NoSnake bool
	// TapQuantum, when positive, rounds tapping distances to this grid
	// (µm), emulating bounded-skew merging-region quantization.
	TapQuantum float64

	// Parallelism bounds the number of goroutines the arena-native MMM
	// build may use for independent subtree merges (0 or 1 = serial).
	// The recursion pre-assigns every subtree a disjoint merge-segment
	// range, so the parallel schedule performs exactly the serial
	// floating-point work on exactly the serial operand order — results
	// are bit-identical regardless of this setting. It does not affect
	// cache keys.
	Parallelism int
}

func (o *Options) defaults() {
	if o.Topology == "" {
		o.Topology = "auto"
	}
}

// nnThreshold is the sink count up to which auto topology picks
// nearest-neighbor clustering (which is cubic but gives slightly better
// wirelength).
const nnThreshold = 400

// subtree is the Elmore state of a merge-candidate root: its position, total
// downstream capacitance and zero-skew delay. mergeKernel consumes two of
// these.
type subtree struct {
	loc   geom.Point
	cap   float64
	delay float64
}

// merged is mergeKernel's result: the tapping-point state plus any snaking
// assigned to the left/right child edges.
type merged struct {
	loc            geom.Point
	cap, delay     float64
	snakeL, snakeR float64
}

// mergeKernel is the zero-skew merge math (Tsay's exact construction): it
// combines two subtrees with an Elmore-balanced tapping point. Baseline
// options degrade it deliberately:
// NoBalance taps at the midpoint, TapQuantum snaps the tapping point to a
// grid, NoSnake clamps instead of elongating.
func mergeKernel(a, b subtree, w tech.WireType, opt Options) merged {
	r, c := w.RPerUm, w.CPerUm
	L := a.loc.Manhattan(b.loc)
	var m merged

	if L == 0 {
		// Coincident roots: balance purely by snaking the faster side.
		if a.delay == b.delay || opt.NoBalance || opt.NoSnake {
			m.loc = a.loc
			m.cap = a.cap + b.cap
			m.delay = math.Max(a.delay, b.delay)
			return m
		}
	}

	// Tapping point at distance x from a along the path:
	//   delay_a(x) = a.delay + r·x·(c·x/2 + a.cap)
	//   delay_b(x) = b.delay + r·(L−x)·(c·(L−x)/2 + b.cap)
	// Setting them equal yields the classic closed form.
	den := r * (a.cap + b.cap + c*L)
	x := 0.0
	if den > 0 {
		x = (b.delay - a.delay + r*L*(b.cap+c*L/2)) / den
	}
	if opt.NoBalance {
		x = L / 2
	}
	if opt.TapQuantum > 0 {
		x = math.Round(x/opt.TapQuantum) * opt.TapQuantum
	}
	if opt.NoBalance || opt.NoSnake {
		x = math.Max(0, math.Min(L, x))
		m.loc = tapPoint(a.loc, b.loc, x)
		da := a.delay + r*x*(c*x/2+a.cap)
		db := b.delay + r*(L-x)*(c*(L-x)/2+b.cap)
		m.delay = math.Max(da, db)
		m.cap = a.cap + b.cap + c*L
		return m
	}
	switch {
	case x >= 0 && x <= L:
		m.loc = tapPoint(a.loc, b.loc, x)
		m.delay = a.delay + r*x*(c*x/2+a.cap)
		m.cap = a.cap + b.cap + c*L
	case x < 0:
		// a is too slow: tap at a and elongate the wire to b.
		m.loc = a.loc
		ext := extension(a.delay-b.delay, b.cap, r, c)
		m.snakeR = ext - L
		if m.snakeR < 0 {
			m.snakeR = 0
		}
		m.delay = a.delay
		m.cap = a.cap + b.cap + c*(L+m.snakeR)
	default: // x > L: b is too slow
		m.loc = b.loc
		ext := extension(b.delay-a.delay, a.cap, r, c)
		m.snakeL = ext - L
		if m.snakeL < 0 {
			m.snakeL = 0
		}
		m.delay = b.delay
		m.cap = a.cap + b.cap + c*(L+m.snakeL)
	}
	return m
}

// extension solves r·L'·(c·L'/2 + cap) = dt for L': the wirelength needed to
// delay the faster side by dt.
func extension(dt, cap, r, c float64) float64 {
	if dt <= 0 {
		return 0
	}
	if c == 0 {
		return dt / (r * cap)
	}
	return (-cap + math.Sqrt(cap*cap+2*c*dt/r)) / c
}

// tapPoint returns the point at Manhattan distance x from a along the
// horizontal-first L-shape to b.
func tapPoint(a, b geom.Point, x float64) geom.Point {
	return geom.LShape(a, b)[0].At(x)
}
