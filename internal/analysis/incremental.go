package analysis

import (
	"math"

	"contango/internal/ctree"
)

// IncrementalNet is a staged RC netlist that tracks its clock tree across
// mutations. Where Extract rebuilds every stage from scratch, Sync consults
// the tree's mutation journal (package ctree), re-extracts only the stages
// an edit touched, and splices cached Stage objects back in for everything
// else. Two guarantees make it safe to build per-stage evaluation caches on
// top:
//
//  1. Pointer stability: a *Stage returned by Sync is the same object as in
//     the previous Sync only if its electrically relevant content (driver
//     parameters, RC arrays, load and sink placement) is unchanged. Even
//     when a stage is re-extracted — including after a whole-tree restore,
//     which replaces every node — a content signature match preserves the
//     old object's identity (with its node pointers rebound to the live
//     tree). The converse does not hold: a stage mutated and reverted
//     across two Syncs comes back as a new object with the original
//     signature, which is why signature equality (Stage.Sig), not pointer
//     equality, is the strongest validity check available to caches.
//
//  2. Shape parity: the Net produced by Sync is identical to what a fresh
//     Extract of the current tree would produce — same stage order, same
//     RC node numbering — because both run the same buildStage walk.
//
// Sync invalidates Nets returned by earlier Sync calls (their stages are
// relinked in place). An IncrementalNet is not safe for concurrent use.
//
// Mutations made through the ctree setters (SetWidth, SetSnake, AddSnake,
// SetBufferSize) and structural operations are picked up automatically;
// writing node fields directly bypasses the journal and is not supported
// while an IncrementalNet is live on the tree.
type IncrementalNet struct {
	tree   *ctree.Tree
	maxSeg float64
	root   *ctree.Node // root at last sync; a change means a tree restore
	gen    uint64      // journal generation at last sync
	net    *Net
	cache  map[int]*Stage // by driver node ID, -1 for the source stage

	// Rebuilt and Reused count stage extractions across the life of the
	// net: how many stages Sync re-extracted versus spliced from cache.
	Rebuilt, Reused int
}

// NewIncrementalNet creates an incremental extractor for tr with the given
// RC subdivision length (DefaultMaxSeg when maxSeg <= 0). No extraction
// happens until the first Sync.
func NewIncrementalNet(tr *ctree.Tree, maxSeg float64) *IncrementalNet {
	if maxSeg <= 0 {
		maxSeg = DefaultMaxSeg
	}
	return &IncrementalNet{tree: tr, maxSeg: maxSeg, cache: make(map[int]*Stage)}
}

// driverKey maps a stage driver to its cache key (-1 for the source stage).
func driverKey(driver *ctree.Node) int {
	if driver == nil {
		return -1
	}
	return driver.ID
}

// stageDriverAbove returns the ID of the buffer driving the stage that owns
// n's parent edge: the nearest strict buffer ancestor, or -1 for the source
// stage.
func stageDriverAbove(n *ctree.Node) int {
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		if cur.Kind == ctree.Buffer {
			return cur.ID
		}
	}
	return -1
}

// Sync brings the netlist up to date with the tree and returns it. Stages
// untouched since the previous Sync keep their object identity; touched
// stages are re-extracted (and keep their identity anyway when the rebuild
// produced identical content, e.g. after a probe was applied and reverted
// across two Syncs, or after a snapshot restore).
func (inc *IncrementalNet) Sync() *Net {
	tr := inc.tree
	full := inc.net == nil || inc.root != tr.Root
	var dirty map[int]bool
	if !full {
		ids := tr.TouchedSince(inc.gen)
		if len(ids) == 0 {
			return inc.net // nothing changed
		}
		dirty = make(map[int]bool, 2*len(ids))
		for _, id := range ids {
			n := tr.Node(id)
			if n == nil {
				// Deleted since touched; the structural op that removed
				// it journaled a surviving neighbor too.
				continue
			}
			if n.Kind == ctree.Buffer {
				// A buffer edit dirties the stage it drives (strength,
				// self-loading) and the stage its input pin loads.
				dirty[n.ID] = true
			}
			dirty[stageDriverAbove(n)] = true
		}
	}

	net := &Net{Tree: tr}
	newCache := make(map[int]*Stage, len(inc.cache)+4)
	var place func(driver *ctree.Node, parentStage, inputNode int)
	place = func(driver *ctree.Node, parentStage, inputNode int) {
		key := driverKey(driver)
		old := inc.cache[key]
		if !full && old != nil && !dirty[key] {
			// Clean stage: relink the cached object without walking its
			// subtree. Child stages hang off its recorded buffer loads.
			idx := len(net.Stages)
			old.Index, old.Parent, old.InputNode = idx, parentStage, inputNode
			old.Children = old.Children[:0]
			net.Stages = append(net.Stages, old)
			if parentStage >= 0 {
				net.Stages[parentStage].Children = append(net.Stages[parentStage].Children, idx)
			}
			newCache[key] = old
			inc.Reused++
			for _, ld := range old.Loads {
				place(ld.Buf, idx, ld.Node)
			}
			return
		}
		s := buildStage(net, tr, inc.maxSeg, driver, parentStage, inputNode, place)
		s.sig = stageSig(s, tr)
		inc.Rebuilt++
		if old != nil && old.sig == s.sig {
			// Identical content: keep the cached object's identity so
			// per-stage evaluation caches keyed on the pointer survive,
			// while rebinding every node pointer to the live tree.
			*old = *s
			net.Stages[old.Index] = old
			s = old
		}
		newCache[key] = s
	}
	place(nil, -1, -1)

	inc.net = net
	inc.cache = newCache
	inc.root = tr.Root
	inc.gen = tr.Gen()
	return net
}

// stageSig hashes everything that determines a stage's electrical behavior:
// the driver (composite parameters, or the tree's source resistance), the
// subdivided RC arrays, and the positions and identities of buffer loads and
// sink measurement points. FNV-1a over the raw float bits — exact content
// equality, no tolerance.
func stageSig(s *Stage, tr *ctree.Tree) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	mixF := func(v float64) { mix(math.Float64bits(v)) }
	if s.Driver == nil {
		mix(0)
		mixF(tr.SourceR)
	} else {
		mix(1)
		mix(uint64(s.Driver.ID))
		mix(uint64(s.Driver.Buf.N))
		mixF(s.Driver.Buf.Type.Cin)
		mixF(s.Driver.Buf.Type.Cout)
		mixF(s.Driver.Buf.Type.Rout)
	}
	mix(uint64(len(s.R)))
	for i := range s.R {
		mixF(s.R[i])
		mixF(s.C[i])
		mix(uint64(s.Par[i] + 1))
	}
	mix(uint64(len(s.Loads)))
	for _, ld := range s.Loads {
		mix(uint64(ld.Node))
		mix(uint64(ld.Buf.ID))
	}
	mix(uint64(len(s.Sinks)))
	for _, m := range s.Sinks {
		mix(uint64(m.Node))
		mix(uint64(m.Sink.ID))
	}
	return h
}
