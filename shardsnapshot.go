package actjoin

import (
	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/geom"
	"actjoin/internal/join"
	"actjoin/internal/refs"
)

// shardSnapshot is an immutable view of one shard: the frozen Adaptive Cell
// Trie, the shared lookup table, the polygon set and the precision
// configuration, all frozen at one publish point. A Snapshot composes one
// per shard.
//
// Concurrency contract: a shardSnapshot never changes after it is
// published. Reading it takes no locks and never blocks on writers.
type shardSnapshot struct {
	polys []*geom.Polygon //act:frozen
	cells *cellRope       //act:frozen — frozen super covering; serialization input
	tree  *act.Tree       //act:frozen
	table *refs.Table     //act:frozen
	opt   options

	precisionLevel int
}

// queryLeaf is the point-query core: the composed Snapshot routes the
// probe's leaf cell to the owning shard and probes that shard's snapshot
// through this entry point without re-encoding the point. Exact queries
// refine candidate cells with PIP tests (the paper's accurate join).
func (s *shardSnapshot) queryLeaf(gp geom.Point, leaf cellid.CellID, exact bool) []PolygonID {
	entry := s.tree.Find(leaf)
	if entry.IsFalseHit() {
		return nil
	}
	var out []PolygonID
	s.table.Visit(entry, func(r refs.Ref) {
		if r.Interior() || !exact {
			out = append(out, r.PolygonID())
			return
		}
		if s.polys[r.PolygonID()].ContainsPoint(gp) {
			out = append(out, r.PolygonID())
		}
	})
	return out
}

// probeShard is the snapshot as a shard of the batch pipeline.
func (s *shardSnapshot) probeShard() join.Shard {
	return join.Shard{Index: s.tree, Table: s.table, Polys: s.polys}
}

// stats returns the shard's structural statistics.
func (s *shardSnapshot) stats() Stats {
	return Stats{
		NumPolygons:     len(s.polys),
		NumCells:        s.cells.Len(),
		NumTrieNodes:    s.tree.NumNodes(),
		OrphanTrieNodes: s.tree.OrphanNodes(),
		TrieSizeBytes:   s.tree.SizeBytes(),
		TableSizeBytes:  s.table.SizeBytes(),
		Granularity:     s.opt.delta,
		PrecisionLevel:  s.precisionLevel,
	}
}
