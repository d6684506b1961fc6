package actjoin

import (
	"errors"

	"actjoin/internal/cellid"
	"actjoin/internal/cover"
	"actjoin/internal/geom"
)

// Runtime polygon updates — the extension the paper sketches in Section
// 3.1.2: "In the build phase, cells of individual polygons are inserted
// one-by-one into ACT. The same procedure could be used to add new polygons
// at runtime … Code for removing polygons would follow the same logic."
//
// The paper leaves the synchronization of runtime updates to the caller;
// here it is the snapshot swap. Each mutation (or Apply batch) is routed to
// the owning shards (index.go); each shard stages its part into its
// writer-side super covering under its mutex, rebuilds the frozen trie off
// to the side, and publishes the result as a new immutable snapshot with
// one atomic pointer store (shard.go). Queries running against the
// previous snapshot are never blocked and never observe a half-applied
// update.
//
// Publish latency is bounded by the mutation, not the index: steady-state
// publishes patch the previous snapshot, and the garbage that patching
// accumulates is compacted by a background goroutine (see compaction.go)
// rather than by a stop-the-writer rebuild, so even the publish that
// crosses a compaction threshold stays mutation-sized.

// ErrRemoved is returned when operating on a polygon id that was removed.
var ErrRemoved = errors.New("actjoin: polygon already removed")

// coverPolygon computes a polygon's covering and interior covering under the
// index's budgets — the cells an Add routes to the owning shards.
func coverPolygon(gp *geom.Polygon, opt options) (covering, interior []cellid.CellID) {
	covering = cover.Covering(gp, cover.Options{MaxCells: opt.coveringCells})
	interior = cover.InteriorCovering(gp, cover.Options{MaxCells: opt.interiorCells, MaxLevel: 20})
	return covering, interior
}

// addRefineLevel returns the refinement level an Add must restore around its
// covering cells, or 0 when the index is exact-only.
//
// Only the regions of the new covering cells can violate the precision
// invariant: insertion places references (its own, and copies made by
// conflict resolution) strictly inside the inserted cells, and everything
// outside them satisfied the invariant before the add. Refining those
// subtrees — instead of rescanning every boundary cell of every polygon —
// makes Add O(covering) rather than O(index).
//
// The refinement level is re-derived from the new polygon's own latitude:
// cell diagonals in meters grow toward the equator, so a polygon added
// equatorward of the build set needs deeper cells than the build-time level
// to honor the same meter bound. The equator-nearest latitude of the
// polygon's bound is its worst case. Never going coarser than the build
// level keeps the invariant of the old references that conflict resolution
// copied inside the seeds.
func addRefineLevel(gp *geom.Polygon, opt options, precisionLevel int) int {
	if precisionLevel == 0 {
		return 0
	}
	lat := equatorNearestLat(gp.Bound())
	level := cellid.LevelForMaxDiagonalMeters(opt.precisionMeters, lat)
	if level < precisionLevel {
		level = precisionLevel
	}
	return level
}

// equatorNearestLat returns the latitude within the rect's extent where
// grid cells are metrically largest (closest to the equator).
func equatorNearestLat(r geom.Rect) float64 {
	switch {
	case r.Lo.Y <= 0 && r.Hi.Y >= 0:
		return 0
	case r.Lo.Y > 0:
		return r.Lo.Y
	default:
		return r.Hi.Y
	}
}
