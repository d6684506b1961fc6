// Package supercover builds the paper's super covering (Section 3.1.1): a
// single set of disjoint multi-resolution grid cells approximating an entire
// set of polygons, where each cell carries the references of every polygon
// whose covering or interior covering contributed it.
//
// The construction follows Listing 1 of the paper, including the
// precision-preserving conflict resolution of Figure 4: when an inserted
// cell conflicts with an existing one (one contains the other), the coarser
// cell c1 is replaced by the finer cell c2 plus the difference d = c1 - c2,
// with c1's references copied to both. The result is a set of cells in which
// every point of space is covered by at most one cell, so an index lookup
// returns at most one cell.
//
// The package also implements the two adaptation mechanisms that make the
// index "adaptive":
//
//   - RefineToPrecision (Section 3.2): boundary cells are replaced by
//     descendants at the level that guarantees a user-defined distance bound,
//     enabling the approximate join to skip refinement entirely.
//   - Train (Section 3.3.1): cells that would trigger PIP tests are split one
//     level per training-point hit, concentrating precision where the
//     expected query distribution needs it.
//
// Internally the super covering is a mutable pointer quadtree per face; it
// is frozen into a sorted (cell id, references) list for indexing. Two
// invariants are maintained throughout: a node holding a cell has no
// ancestor and no descendant holding a cell, and the tree never contains a
// node with neither a cell nor children (refinement and training prune the
// chains they empty, see pruneEmptyAt).
//
// Two pieces of writer-side bookkeeping ride along with every mutation:
//
//   - Dirty-region tracking (dirty.go) records the subtree roots each
//     mutation touched, so an incremental freeze re-emits only those
//     regions and a transaction abort resets only them (ResetRegion).
//   - The per-polygon cell directory (directory.go) maintains the reverse
//     polygon→cells mapping, making RemovePolygon and ReferencedPolygons
//     O(footprint) instead of O(index).
package supercover

import (
	"runtime"
	"sync"
	"time"

	"actjoin/internal/cellid"
	"actjoin/internal/cover"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// Cell is one entry of the frozen super covering.
type Cell struct {
	ID   cellid.CellID
	Refs []refs.Ref
}

// node is a quadrant of the mutable quadtree.
type node struct {
	children [4]*node
	refs     []refs.Ref
	hasCell  bool
}

func (n *node) hasChildren() bool {
	return n.children[0] != nil || n.children[1] != nil || n.children[2] != nil || n.children[3] != nil
}

// SuperCovering is the mutable holistic polygon approximation.
type SuperCovering struct {
	roots    [cellid.NumFaces]*node
	numCells int

	// Dirty tracking for incremental freezes (see dirty.go): every mutation
	// records the root of the subtree it touched, so a publish can re-emit
	// only those regions and splice everything else from the previous frozen
	// snapshot. dirtyAll is the overflow/bulk flag: when set, the next freeze
	// must walk everything.
	dirty    []cellid.CellID
	dirtyAll bool

	// dir is the per-polygon footprint directory (see directory.go): the
	// reverse polygon→cells mapping every mutation maintains, making
	// RemovePolygon and ReferencedPolygons O(footprint).
	dir directory
}

// New returns an empty super covering.
func New() *SuperCovering { return &SuperCovering{dir: newDirectory()} }

// NumCells returns the current number of cells.
func (sc *SuperCovering) NumCells() int { return sc.numCells }

// Insert adds a cell with the given references, applying the
// precision-preserving conflict resolution of Listing 1 when the cell
// duplicates or conflicts with existing cells.
func (sc *SuperCovering) Insert(id cellid.CellID, rs []refs.Ref) {
	face := id.Face()
	if sc.roots[face] == nil {
		sc.roots[face] = &node{}
	}
	cur := sc.roots[face]
	level := id.Level()

	for l := 1; l <= level; l++ {
		if cur.hasCell {
			// Conflict: an existing ancestor cell c1 contains the new cell
			// c2. Replace c1 with c2 plus the difference d (three sibling
			// cells per level between them), copying c1's references to
			// every piece (Figure 4). The whole subtree under c1 changes, so
			// c1 is the dirty root.
			ancestor := id.Parent(l - 1)
			sc.markDirty(ancestor)
			oldRefs := cur.refs
			sc.dir.removeRefs(ancestor, oldRefs)
			cur.hasCell = false
			cur.refs = nil
			sc.numCells--
			for m := l; m <= level; m++ {
				pos := id.ChildPosition(m)
				parent := id.Parent(m - 1)
				for i := 0; i < 4; i++ {
					if i == pos {
						continue
					}
					cur.children[i] = &node{hasCell: true, refs: copyRefs(oldRefs)}
					sc.dir.addRefs(parent.Child(i), oldRefs)
					sc.numCells++
				}
				next := &node{}
				cur.children[pos] = next
				cur = next
			}
			cur.hasCell = true
			cur.refs = refs.Normalize(append(copyRefs(oldRefs), rs...))
			sc.dir.addRefs(id, cur.refs)
			sc.numCells++
			return
		}
		pos := id.ChildPosition(l)
		if cur.children[pos] == nil {
			cur.children[pos] = &node{}
		}
		cur = cur.children[pos]
	}

	sc.markDirty(id)
	switch {
	case cur.hasCell:
		// Duplicate cell: merge the reference lists.
		cur.refs = refs.Normalize(append(cur.refs, rs...))
		sc.dir.addRefs(id, rs)
	case cur.hasChildren():
		// Conflict: the new cell c1 is an ancestor of existing cells.
		// Distribute c1's references into the subtree, turning uncovered
		// gaps into difference cells.
		sc.distribute(cur, id, rs)
	default:
		cur.hasCell = true
		cur.refs = copyRefs(rs)
		sc.dir.addRefs(id, rs)
		sc.numCells++
	}
}

// distribute pushes rs down the subtree rooted at n (cell id), merging into
// existing cells and turning uncovered gaps into difference cells.
func (sc *SuperCovering) distribute(n *node, id cellid.CellID, rs []refs.Ref) {
	if n.hasCell {
		n.refs = refs.Normalize(append(n.refs, rs...))
		sc.dir.addRefs(id, rs)
		return
	}
	if !n.hasChildren() {
		n.hasCell = true
		n.refs = copyRefs(rs)
		sc.dir.addRefs(id, rs)
		sc.numCells++
		return
	}
	for i := 0; i < 4; i++ {
		child := id.Child(i)
		if n.children[i] == nil {
			n.children[i] = &node{hasCell: true, refs: copyRefs(rs)}
			sc.dir.addRefs(child, rs)
			sc.numCells++
		} else {
			sc.distribute(n.children[i], child, rs)
		}
	}
}

// pruneEmptyAt detaches the node at c when it ended up holding no cell and
// no children, then prunes the emptied ancestor chain bottom-up. Refinement
// and training call it after rewriting a subtree: a cell whose references
// all turn out disjoint is dropped, and the node (and chain) it occupied
// must go with it — an empty node left behind would divert a later Insert of
// an ancestor cell into the distribute path and shatter a cell that a clean
// tree stores whole. The invariant this maintains: the tree never contains a
// node with neither a cell nor children.
func (sc *SuperCovering) pruneEmptyAt(c cellid.CellID) {
	face := c.Face()
	level := c.Level()
	var path [cellid.MaxLevel]*node // path[l] is the node at quadtree level l
	cur := sc.roots[face]
	for l := 1; cur != nil && l <= level; l++ {
		path[l-1] = cur
		cur = cur.children[c.ChildPosition(l)]
	}
	if cur == nil || cur.hasCell || cur.hasChildren() {
		return
	}
	for l := level; l >= 1; l-- {
		parent := path[l-1]
		parent.children[c.ChildPosition(l)] = nil
		if parent.hasCell || parent.hasChildren() {
			return
		}
	}
	sc.roots[face] = nil
}

func copyRefs(rs []refs.Ref) []refs.Ref {
	out := make([]refs.Ref, len(rs))
	copy(out, rs)
	return out
}

// Options bundle the per-polygon covering configurations used by Build.
type Options struct {
	Covering cover.Options
	Interior cover.Options
}

// DefaultOptions returns the paper's default configuration.
func DefaultOptions() Options {
	return Options{
		Covering: cover.DefaultCoveringOptions(),
		Interior: cover.DefaultInteriorOptions(),
	}
}

// BuildTiming reports the phase breakdown of a timed build, matching the
// two build-time rows of Table 1.
type BuildTiming struct {
	IndividualCoverings time.Duration
	SuperCovering       time.Duration
}

// BuildTimed is Build with the phase timing the paper reports separately
// ("build individual coverings" vs "build super covering").
func BuildTimed(polys []*geom.Polygon, opt Options) (*SuperCovering, BuildTiming) {
	var t BuildTiming
	start := time.Now()
	coverings, interiors := computeCoverings(polys, opt)
	t.IndividualCoverings = time.Since(start)

	start = time.Now()
	sc := merge(polys, coverings, interiors)
	t.SuperCovering = time.Since(start)
	return sc, t
}

// Build computes individual coverings and interior coverings for every
// polygon (in parallel, as in the paper) and merges them serially into a
// super covering per Listing 1: coverings first with candidate references,
// then interior coverings with true-hit references.
func Build(polys []*geom.Polygon, opt Options) *SuperCovering {
	coverings, interiors := computeCoverings(polys, opt)
	return merge(polys, coverings, interiors)
}

// computeCoverings runs the per-polygon coverers in parallel.
func computeCoverings(polys []*geom.Polygon, opt Options) (coverings, interiors [][]cellid.CellID) {
	coverings = make([][]cellid.CellID, len(polys))
	interiors = make([][]cellid.CellID, len(polys))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(polys) {
		workers = len(polys)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//act:norecover pure-compute covering worker writing disjoint slots; a panic is a broken invariant with no state to contain
		go func() {
			defer wg.Done()
			for i := range next {
				coverings[i] = cover.Covering(polys[i], opt.Covering)
				interiors[i] = cover.InteriorCovering(polys[i], opt.Interior)
			}
		}()
	}
	for i := range polys {
		next <- i
	}
	close(next)
	wg.Wait()
	return coverings, interiors
}

// merge is the serial Listing-1 merge.
func merge(polys []*geom.Polygon, coverings, interiors [][]cellid.CellID) *SuperCovering {
	sc := New()
	for i := range polys {
		r := []refs.Ref{refs.MakeRef(uint32(i), false)}
		for _, c := range coverings[i] {
			sc.Insert(c, r)
		}
	}
	for i := range polys {
		r := []refs.Ref{refs.MakeRef(uint32(i), true)}
		for _, c := range interiors[i] {
			sc.Insert(c, r)
		}
	}
	return sc
}

// Cells freezes the super covering into a sorted, disjoint list of cells
// with normalized reference lists. The returned cells own their reference
// slices: they stay valid — and unchanged — across any later mutation of
// the covering, so a frozen snapshot can keep them while the writer moves
// on (Insert, RemovePolygon and Train all edit node reference lists in
// place).
//
//act:frozen
func (sc *SuperCovering) Cells() []Cell {
	return sc.CellsAppend(make([]Cell, 0, sc.numCells))
}

// CellsAppend is Cells appending into dst (reusing its capacity), for
// callers that freeze repeatedly and want to recycle the cell buffer instead
// of allocating a covering-sized slice per freeze.
//
// All emitted reference lists are packed into one flat backing array (a
// counting pre-pass sizes it exactly), not one allocation per cell: frozen
// cells are resident for as long as any snapshot splices them forward, and
// at ~10⁶ cells a slice object per cell would dominate the garbage
// collector's mark work — and the write tail with it.
//
//act:frozen
func (sc *SuperCovering) CellsAppend(dst []Cell) []Cell {
	cells, rs := 0, 0
	for f := 0; f < cellid.NumFaces; f++ {
		if sc.roots[f] != nil {
			countEmit(sc.roots[f], &cells, &rs)
		}
	}
	flat := make([]refs.Ref, 0, rs)
	if free := cap(dst) - len(dst); free < cells {
		grown := make([]Cell, len(dst), len(dst)+cells)
		copy(grown, dst)
		dst = grown
	}
	for f := 0; f < cellid.NumFaces; f++ {
		if sc.roots[f] != nil {
			emit(sc.roots[f], cellid.FaceCell(f), &dst, &flat)
		}
	}
	return dst
}

// countEmit tallies the cells and (pre-normalization, so possibly slightly
// over-counted) references a subtree will emit.
func countEmit(n *node, cells, rs *int) {
	if n.hasCell {
		*cells++
		*rs += len(n.refs)
		return
	}
	for i := 0; i < 4; i++ {
		if n.children[i] != nil {
			countEmit(n.children[i], cells, rs)
		}
	}
}

// emit appends the subtree's cells to out, packing every normalized
// reference list into flat. flat must have capacity for all of them (see
// countEmit): the packed subslices alias it, so it must never reallocate
// mid-emit.
func emit(n *node, id cellid.CellID, out *[]Cell, flat *[]refs.Ref) {
	if n.hasCell {
		rs := refs.Normalize(n.refs)
		start := len(*flat)
		*flat = append(*flat, rs...)
		*out = append(*out, Cell{ID: id, Refs: (*flat)[start:len(*flat):len(*flat)]})
		return
	}
	for i := 0; i < 4; i++ {
		if n.children[i] != nil {
			emit(n.children[i], id.Child(i), out, flat)
		}
	}
}

// Lookup walks the tree toward the leaf cell and returns the unique cell
// containing it, if any. Used by training and tests; the production probe
// path is ACT.
func (sc *SuperCovering) Lookup(leaf cellid.CellID) (Cell, bool) {
	cur := sc.roots[leaf.Face()]
	id := cellid.FaceCell(leaf.Face())
	for l := 1; cur != nil; l++ {
		if cur.hasCell {
			return Cell{ID: id, Refs: cur.refs}, true
		}
		if l > cellid.MaxLevel {
			break
		}
		pos := leaf.ChildPosition(l)
		cur = cur.children[pos]
		id = id.Child(pos)
	}
	return Cell{}, false
}

// Stats summarizes the structure of the super covering.
type Stats struct {
	NumCells      int
	BoundaryCells int // cells with at least one candidate reference
	InteriorCells int // cells with only true-hit references
	MinLevel      int
	MaxLevel      int
	LevelCounts   [cellid.MaxLevel + 1]int
}

// ComputeStats walks the covering and tallies cell statistics.
func (sc *SuperCovering) ComputeStats() Stats {
	st := Stats{MinLevel: cellid.MaxLevel}
	for _, c := range sc.Cells() {
		st.NumCells++
		l := c.ID.Level()
		st.LevelCounts[l]++
		if l < st.MinLevel {
			st.MinLevel = l
		}
		if l > st.MaxLevel {
			st.MaxLevel = l
		}
		expensive := false
		for _, r := range c.Refs {
			if !r.Interior() {
				expensive = true
				break
			}
		}
		if expensive {
			st.BoundaryCells++
		} else {
			st.InteriorCells++
		}
	}
	if st.NumCells == 0 {
		st.MinLevel = 0
	}
	return st
}
