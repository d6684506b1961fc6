package main

import (
	"testing"

	"actjoin/internal/geom"
)

// checkFixture is one batch of one point, covered by base polygon 0 and by
// churn square 0, whose id is 1.
func checkFixture() (*expectation, *inputs) {
	sq := geom.MustPolygon(geom.Ring{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}})
	x := &expectation{
		nBase:        1,
		counts:       [][]int64{{1}},
		answer:       [][]int32{{0}},
		squareCounts: [][]int64{{1}},
	}
	in := &inputs{squares: []*geom.Polygon{sq}, gbatch: [][]geom.Point{{{X: 0.5, Y: 0.5}}}}
	return x, in
}

// TestCheckCountsLiveSquare checks that a publish that dropped or hid the
// added square fails when the live square is known, and that a known
// removal must leave no count behind.
func TestCheckCountsLiveSquare(t *testing.T) {
	x, _ := checkFixture()
	cases := []struct {
		name   string
		counts []int64
		live   int64
		fail   bool
	}{
		{"live square counted", []int64{1, 1}, 1, false},
		{"live square missing", []int64{1, 0}, 1, true},
		{"live square absent from counts", []int64{1}, 1, true},
		{"removed square still counted", []int64{1, 1}, -1, true},
		{"removed square gone", []int64{1, 0}, -1, false},
		{"writer running, square counted", []int64{1, 1}, liveUnknown, false},
		{"writer running, square not yet added", []int64{1, 0}, liveUnknown, false},
		{"writer running, wrong count", []int64{1, 2}, liveUnknown, true},
		{"base count wrong", []int64{0, 1}, 1, true},
	}
	for _, tc := range cases {
		var c checker
		x.checkCounts(0, tc.counts, tc.live, &c)
		if got := c.failed > 0; got != tc.fail {
			t.Errorf("%s: failed=%v, want %v (%v)", tc.name, got, tc.fail, c.problems)
		}
	}
}

// TestCheckAnswerLiveSquare checks the per-point form of the same rule.
func TestCheckAnswerLiveSquare(t *testing.T) {
	x, in := checkFixture()
	cases := []struct {
		name string
		ids  []uint32
		live int64
		fail bool
	}{
		{"live square present", []uint32{0, 1}, 1, false},
		{"live square missing", []uint32{0}, 1, true},
		{"removed square still present", []uint32{0, 1}, -1, true},
		{"writer running", []uint32{0}, liveUnknown, false},
		{"base polygon missing", []uint32{1}, 1, true},
	}
	for _, tc := range cases {
		var c checker
		x.checkAnswer(in, 0, 0, tc.ids, tc.live, &c)
		if got := c.failed > 0; got != tc.fail {
			t.Errorf("%s: failed=%v, want %v (%v)", tc.name, got, tc.fail, c.problems)
		}
	}
}
