package geom

import (
	"errors"
	"math"
)

// Maze is a uniform-grid maze router used to find obstacle-avoiding
// rectilinear paths for point-to-point wires (paper Section IV-A, Step 1).
// Grid cells whose center lies strictly inside an obstacle are blocked.
// Route reuses per-grid scratch held on the Maze, so a Maze must not be
// shared by concurrent Route calls.
type Maze struct {
	die     Rect
	step    float64
	nx, ny  int
	blocked []bool

	// Search scratch, reused across Route calls.
	dist  []float64
	prev  []int32
	pq    mazePQ
	cells []int32
	path  Polyline
}

// NewMaze rasterizes the obstacle set onto a grid with the given cell size
// (µm) over the die area. A nil obstacle set yields an empty maze.
func NewMaze(die Rect, step float64, obs *ObstacleSet) *Maze {
	if step <= 0 {
		step = 1
	}
	nx := int(math.Ceil(die.W()/step)) + 1
	ny := int(math.Ceil(die.H()/step)) + 1
	if nx < 2 {
		nx = 2
	}
	if ny < 2 {
		ny = 2
	}
	m := &Maze{die: die, step: step, nx: nx, ny: ny, blocked: make([]bool, nx*ny)}
	if obs != nil {
		for i := range obs.Obstacles {
			r := obs.Obstacles[i].Rect
			i0, j0 := m.cellOf(Point{r.MinX, r.MinY})
			i1, j1 := m.cellOf(Point{r.MaxX, r.MaxY})
			for j := j0; j <= j1; j++ {
				for i := i0; i <= i1; i++ {
					if r.ContainsStrict(m.center(i, j)) {
						m.blocked[j*m.nx+i] = true
					}
				}
			}
		}
	}
	return m
}

func (m *Maze) cellOf(p Point) (int, int) {
	i := int(math.Round((p.X - m.die.MinX) / m.step))
	j := int(math.Round((p.Y - m.die.MinY) / m.step))
	if i < 0 {
		i = 0
	}
	if i >= m.nx {
		i = m.nx - 1
	}
	if j < 0 {
		j = 0
	}
	if j >= m.ny {
		j = m.ny - 1
	}
	return i, j
}

func (m *Maze) center(i, j int) Point {
	return Point{m.die.MinX + float64(i)*m.step, m.die.MinY + float64(j)*m.step}
}

// ErrNoRoute is returned when the maze holds no path between the endpoints.
var ErrNoRoute = errors.New("geom: no obstacle-avoiding route exists")

type mazeItem struct {
	cell int
	dir  int8 // arrival direction 0..3, -1 at start
	cost float64
}

// mazePQ is a typed binary min-heap on cost. push and pop replicate
// container/heap's sift algorithms (same element comparisons in the same
// order), so the frontier pops in exactly the order the boxed
// heap.Push/heap.Pop implementation produced — routes are unchanged — while
// avoiding the interface{} allocation both of those made per item.
type mazePQ []mazeItem

func (q mazePQ) less(i, j int) bool { return q[i].cost < q[j].cost }

func (q *mazePQ) push(it mazeItem) {
	*q = append(*q, it)
	h := *q
	// Sift up, as container/heap.up.
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *mazePQ) pop() mazeItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift down over h[:n], as container/heap.down.
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*q = h[:n]
	return it
}

// bendPenalty biases the search toward straight runs so that routes have few
// jogs; it is small enough never to trade extra length for fewer bends.
const bendPenalty = 1e-3

// Route finds a shortest obstacle-avoiding rectilinear path from a to b.
// Endpoints that fall in blocked cells are allowed to escape through blocked
// cells until free space is reached (needed when a sink abuts an obstacle
// edge). The returned polyline starts exactly at a and ends exactly at b.
func (m *Maze) Route(a, b Point) (Polyline, error) {
	si, sj := m.cellOf(a)
	ti, tj := m.cellOf(b)
	start := sj*m.nx + si
	target := tj*m.nx + ti
	if start == target {
		return Polyline{a, b}.Rectify().Simplify(), nil
	}
	if len(m.dist) != m.nx*m.ny {
		m.dist = make([]float64, m.nx*m.ny)
		m.prev = make([]int32, m.nx*m.ny)
	}
	dist := m.dist
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	prev := m.prev
	for i := range prev {
		prev[i] = -1
	}
	dx := [4]int{1, -1, 0, 0}
	dy := [4]int{0, 0, 1, -1}
	pq := &m.pq
	*pq = append((*pq)[:0], mazeItem{cell: start, dir: -1, cost: 0})
	dist[start] = 0
	for len(*pq) > 0 {
		it := pq.pop()
		if it.cell == target {
			break
		}
		if it.cost > dist[it.cell]+2*bendPenalty {
			continue
		}
		ci := it.cell % m.nx
		cj := it.cell / m.nx
		for d := 0; d < 4; d++ {
			ni, nj := ci+dx[d], cj+dy[d]
			if ni < 0 || ni >= m.nx || nj < 0 || nj >= m.ny {
				continue
			}
			nc := nj*m.nx + ni
			// Blocked cells are passable only while escaping from (or
			// approaching) a blocked endpoint region.
			if m.blocked[nc] && nc != target && !m.blocked[it.cell] {
				continue
			}
			cost := it.cost + 1
			if it.dir >= 0 && it.dir != int8(d) {
				cost += bendPenalty
			}
			if cost < dist[nc] {
				dist[nc] = cost
				prev[nc] = int32(it.cell)
				pq.push(mazeItem{cell: nc, dir: int8(d), cost: cost})
			}
		}
	}
	if math.IsInf(dist[target], 1) {
		return nil, ErrNoRoute
	}
	// Backtrack and build the raw path in scratch reused across calls; the
	// returned polyline is the fresh copy Rectify makes, so it never aliases
	// the scratch.
	cells := m.cells[:0]
	for c := target; c != -1; c = int(prev[c]) {
		cells = append(cells, int32(c))
		if c == start {
			break
		}
	}
	m.cells = cells
	pl := append(m.path[:0], a)
	for i := len(cells) - 1; i >= 0; i-- {
		c := int(cells[i])
		pl = append(pl, m.center(c%m.nx, c/m.nx))
	}
	pl = append(pl, b)
	m.path = pl
	return pl.Rectify().Simplify(), nil
}
