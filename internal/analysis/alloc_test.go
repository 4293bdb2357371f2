//go:build !race

package analysis

import (
	"testing"

	"contango/internal/tech"
)

// TestStageElmoreMaxAtAllocFree: the transient engine calls
// StageElmoreMaxAt once per stage simulation, so it must run on pooled
// scratch without allocating. (The race detector makes sync.Pool drop
// entries at random, hence the build tag.)
func TestStageElmoreMaxAtAllocFree(t *testing.T) {
	tk := tech.Default45()
	net := extract(t, batchFixture(tk).Arena(), 100)
	c := tech.Corner{Name: "b", Vdd: 1.0, RDerate: 1.17, CDerate: 0.93}
	allocs := testing.AllocsPerRun(50, func() {
		for _, s := range net.Stages {
			StageElmoreMaxAt(s, net.DriverR(s, c), c)
		}
	})
	if allocs != 0 {
		t.Errorf("StageElmoreMaxAt allocates %.1f objects per sweep, want 0", allocs)
	}
}
