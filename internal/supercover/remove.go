package supercover

import "actjoin/internal/cellid"

// RemovePolygon deletes every reference to the polygon from the covering
// and drops cells that end up with no references, pruning emptied subtrees.
// It returns the number of cells that still referenced the polygon.
//
// This implements the update path the paper sketches as future work
// ("removing polygons would follow the same logic [as inserting], with the
// only difference being that we may want to periodically reorganize the
// lookup table" — the incremental publish path reorganizes the lookup table
// with threshold-triggered compaction, see internal/cellindex).
//
// The per-polygon directory records exactly which cells reference the
// polygon, so the removal descends only to those cells: the cost is
// O(footprint · depth), independent of the covering size. Each edited cell
// is recorded as its own dirty region, so the cost of the next incremental
// freeze is proportional to the polygon's footprint too. RemovePolygonWalk
// is the pre-directory full-quadtree walk; the two implementations produce
// identical trees and identical dirty marks.
func (sc *SuperCovering) RemovePolygon(id uint32) int {
	// Detach the polygon's sorted cell slice and walk it directly: the
	// directory keeps it sorted, so the footprint snapshot costs no
	// allocation and no sort, and the sorted descent keeps the node accesses
	// coherent. Detaching up front is also the directory maintenance for
	// this removal — removeRefAt below edits only the tree and the dirty
	// marks, since no other polygon's entries change (a cell dropped
	// entirely had no other references by definition).
	cells := sc.dir.take(id)
	for _, c := range cells {
		sc.removeRefAt(c, id)
	}
	return len(cells)
}

// removeRefAt descends to the directory-recorded cell c, strips polygon p
// from its reference list, and — when the cell ends up empty — drops it and
// prunes the emptied node chain. The caller has already detached p's own
// directory entry (take), so only the dirty mark is recorded here. Panics
// when the tree holds no cell at c: that means the directory diverged from
// the tree, which is a programming error in the maintenance hooks, not a
// data error.
func (sc *SuperCovering) removeRefAt(c cellid.CellID, p uint32) {
	cur := sc.roots[c.Face()]
	level := c.Level()
	for l := 1; cur != nil && l <= level; l++ {
		if cur.hasCell {
			cur = nil // an ancestor cell covers c: the directory lied
			break
		}
		cur = cur.children[c.ChildPosition(l)]
	}
	if cur == nil || !cur.hasCell {
		panic("supercover: directory points at a cell the tree does not hold")
	}

	kept := cur.refs[:0]
	for _, r := range cur.refs {
		if r.PolygonID() == p {
			continue
		}
		kept = append(kept, r)
	}
	sc.markDirty(c)
	cur.refs = kept
	if len(kept) > 0 {
		return
	}
	cur.hasCell = false
	cur.refs = nil
	sc.numCells--
	// Prune the emptied chain bottom-up, exactly as the walk-based removal
	// prunes empty subtrees on its way out.
	sc.pruneEmptyAt(c)
}

// RemovePolygonWalk is the pre-directory RemovePolygon: a full walk of all
// six face trees, filtering every reference list. O(index) instead of
// O(footprint); kept as the reference implementation the differential tests
// compare against and the baseline the removal benchmarks time. It
// maintains the directory just like RemovePolygon, so the two are
// interchangeable on one covering.
func (sc *SuperCovering) RemovePolygonWalk(id uint32) int {
	touched := 0
	for f := range sc.roots {
		if sc.roots[f] == nil {
			continue
		}
		sc.removeFromNode(sc.roots[f], cellid.FaceCell(f), id, &touched)
		if !sc.roots[f].hasCell && !sc.roots[f].hasChildren() {
			sc.roots[f] = nil
		}
	}
	return touched
}

// removeFromNode filters the subtree and reports whether the node is now
// completely empty (no cell, no children).
func (sc *SuperCovering) removeFromNode(n *node, c cellid.CellID, id uint32, touched *int) bool {
	if n.hasCell {
		kept := n.refs[:0]
		found := false
		for _, r := range n.refs {
			if r.PolygonID() == id {
				found = true
				continue
			}
			kept = append(kept, r)
		}
		if found {
			*touched++
			sc.markDirty(c)
			sc.dir.removeOne(c, id)
			n.refs = kept
			if len(kept) == 0 {
				n.hasCell = false
				n.refs = nil
				sc.numCells--
			}
		}
		return !n.hasCell
	}
	empty := true
	for i := 0; i < 4; i++ {
		if n.children[i] == nil {
			continue
		}
		if sc.removeFromNode(n.children[i], c.Child(i), id, touched) {
			n.children[i] = nil
		} else {
			empty = false
		}
	}
	return empty
}

// ReferencedPolygons returns the set of polygon ids still referenced
// anywhere in the covering. Directory-backed: O(live polygons), no tree
// walk.
func (sc *SuperCovering) ReferencedPolygons() map[uint32]bool {
	out := make(map[uint32]bool, len(sc.dir.cells))
	for p := range sc.dir.cells {
		out[p] = true
	}
	return out
}
