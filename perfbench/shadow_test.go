package main

import (
	"testing"

	"actjoin/internal/cellid"
	"actjoin/internal/supercover"
)

// TestCellListReplaceRegions checks the chunked splice against a flat
// reference over several chunk boundaries.
func TestCellListReplaceRegions(t *testing.T) {
	base := cellid.FaceCell(2)
	for base.Level() < 8 {
		base = base.Child(1)
	}
	// Every level-14 cell under base: 4096 sorted, disjoint cells.
	var flat []supercover.Cell
	var walk func(c cellid.CellID)
	walk = func(c cellid.CellID) {
		if c.Level() == 14 {
			flat = append(flat, supercover.Cell{ID: c})
			return
		}
		for _, ch := range c.Children() {
			walk(ch)
		}
	}
	walk(base)
	l := newCellList(flat)

	// 1024-cell chunks: replace a level-10 subtree with its root cell,
	// empty another, and replace a whole level-9 subtree (one chunk) with
	// two level-10 cells.
	roots := []cellid.CellID{base.Child(0).Child(3), base.Child(1).Child(2), base.Child(3)}
	regions := [][]supercover.Cell{
		{{ID: roots[0]}},
		{},
		{{ID: roots[2].Child(0)}, {ID: roots[2].Child(3)}},
	}
	var want []supercover.Cell
	for _, c := range flat {
		inside := false
		for _, r := range roots {
			if r.Contains(c.ID) {
				inside = true
			}
		}
		if !inside {
			want = append(want, c)
		}
	}
	for _, reg := range regions {
		want = append(want, reg...)
	}
	sortCells(want)

	l.replaceRegions(roots, regions)
	got := l.appendRange(nil, 0, ^cellid.CellID(0))
	if l.n != len(want) || len(got) != len(want) {
		t.Fatalf("%d cells (n=%d), want %d", len(got), l.n, len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("cell %d: %v, want %v", i, got[i].ID, want[i].ID)
		}
	}
	if n := len(l.appendRange(nil, roots[2].RangeMin(), roots[2].RangeMax())); n != 2 {
		t.Errorf("appendRange over a replaced root: %d cells, want 2", n)
	}
}

func sortCells(cs []supercover.Cell) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].ID < cs[j-1].ID; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
