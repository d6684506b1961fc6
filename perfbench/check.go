package main

import (
	"fmt"
	"slices"

	"actjoin/internal/geom"
)

// expectation holds a run's reference answers, computed on a freshly built
// index before any timing starts and cross-checked against a brute-force
// oracle that shares no code with the engine's index.
type expectation struct {
	nBase int // polygons of the seed set; churn ids start here
	// counts[b][pid] is the number of pool batch b's points covered by
	// base polygon pid.
	counts [][]int64
	// answer[b][i] is the single base polygon covering point i of batch b,
	// -1 for none, -2 for several (listed in several).
	answer  [][]int32
	several map[int][]uint32 // key b*batchPoints+i
	// squareCounts[b][s] is the number of batch b's points inside churn
	// square s.
	squareCounts [][]int64
	verify       [][]uint32 // answers for the verification sample
}

// checker counts attempted and failed operations of one goroutine and keeps
// the first few failure descriptions.
type checker struct {
	attempted, failed int64
	problems          []string
}

// fail records a failed operation.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// merge folds another checker into c.
func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, p := range o.problems {
		if len(c.problems) < 8 {
			c.problems = append(c.problems, p)
		}
	}
}

// bruteForce returns the ids of the polygons containing p, ascending, by
// testing every polygon.
func bruteForce(polys []*geom.Polygon, p geom.Point) []uint32 {
	var out []uint32
	for i, poly := range polys {
		if poly.ContainsPoint(p) {
			out = append(out, uint32(i))
		}
	}
	return out
}

// sorted returns a sorted copy of ids.
func sorted(ids []uint32) []uint32 {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// expect computes the reference answers on a freshly built index: a
// per-point Covers loop over every pool point, checked against the brute
// force oracle on a sample of each batch. Oracle mismatches are failures of
// the run.
func expect(e *engine, in inputs, c *checker) *expectation {
	x := &expectation{nBase: len(in.polys), several: map[int][]uint32{}}
	v := e.pin()
	for b, pts := range in.batch {
		counts := make([]int64, x.nBase)
		ans := make([]int32, len(pts))
		for i, p := range pts {
			ids := v.covers(p)
			switch len(ids) {
			case 0:
				ans[i] = -1
			case 1:
				ans[i] = int32(ids[0])
			default:
				ans[i] = -2
				x.several[b*batchPoints+i] = sorted(ids)
			}
			for _, id := range ids {
				counts[id]++
			}
			if i < oracleSample {
				c.attempted++
				if want := bruteForce(in.polys, in.gbatch[b][i]); !slices.Equal(sorted(ids), want) {
					c.fail("oracle: batch %d point %d: Covers %v, brute force %v", b, i, ids, want)
				}
			}
		}
		x.counts = append(x.counts, counts)
		x.answer = append(x.answer, ans)

		sq := make([]int64, len(in.squares))
		for s, poly := range in.squares {
			for _, p := range in.gbatch[b] {
				if poly.ContainsPoint(p) {
					sq[s]++
				}
			}
		}
		x.squareCounts = append(x.squareCounts, sq)
	}
	for _, p := range in.verify {
		x.verify = append(x.verify, sorted(v.covers(p)))
	}
	return x
}

// squareOf maps a churn polygon id to its square: the k-th Add of a run
// gets id nBase+k and inserts square k mod squarePool.
func (x *expectation) squareOf(id uint32) int { return int(id-uint32(x.nBase)) % squarePool }

// liveUnknown stands for the live churn square of a read that runs beside
// the writer, when which square is in the index is not known.
const liveUnknown = -2

// checkCounts compares one batch's counts with the reference: base
// polygons exactly, and the churn squares by live, the id of the square in
// the index (-1 for none). A known live square must have exactly its count
// and every other churn polygon none; with liveUnknown, at most one churn
// polygon may be counted, with its square's exact count.
func (x *expectation) checkCounts(b int, counts []int64, live int64, c *checker) {
	if len(counts) < x.nBase || live >= int64(len(counts)) {
		c.fail("batch %d: %d counts for %d base polygons and live polygon %d", b, len(counts), x.nBase, live)
		return
	}
	if !slices.Equal(counts[:x.nBase], x.counts[b]) {
		c.fail("batch %d: counts %v, want %v", b, counts[:x.nBase], x.counts[b])
		return
	}
	seen := 0
	for id := x.nBase; id < len(counts); id++ {
		want := int64(0)
		if live == liveUnknown && counts[id] != 0 || int64(id) == live {
			want = x.squareCounts[b][x.squareOf(uint32(id))]
		}
		if counts[id] != 0 {
			seen++
		}
		if counts[id] != want || seen > 1 {
			c.fail("batch %d: churn polygon %d counted %d, want %d (live %d, counted squares %d)", b, id, counts[id], want, live, seen)
			return
		}
	}
}

// checkAnswer compares one Covers answer with the reference: base ids
// exactly, plus only churn squares that contain the point. With a known
// live square (live >= -1, see checkCounts), no other churn id may appear,
// and the live one must when its square contains the point.
func (x *expectation) checkAnswer(in *inputs, b, i int, ids []uint32, live int64, c *checker) {
	p := in.gbatch[b][i]
	var base []uint32
	sawLive := false
	for _, id := range ids {
		if int(id) < x.nBase {
			base = append(base, id)
			continue
		}
		sawLive = sawLive || int64(id) == live
		if live != liveUnknown && int64(id) != live {
			c.fail("lookup batch %d point %d: churn polygon %d is not live (live %d)", b, i, id, live)
			return
		}
		if !in.squares[x.squareOf(id)].ContainsPoint(p) {
			c.fail("lookup batch %d point %d: churn polygon %d does not contain the point", b, i, id)
			return
		}
	}
	if live >= 0 && !sawLive && in.squares[x.squareOf(uint32(live))].ContainsPoint(p) {
		c.fail("lookup batch %d point %d: live churn polygon %d missing from %v", b, i, live, ids)
		return
	}
	ok := false
	switch want := x.answer[b][i]; want {
	case -1:
		ok = len(base) == 0
	case -2:
		ok = slices.Equal(sorted(base), x.several[b*batchPoints+i])
	default:
		ok = len(base) == 1 && base[0] == uint32(want)
	}
	if !ok {
		c.fail("lookup batch %d point %d: Covers %v, want %d", b, i, ids, x.answer[b][i])
	}
}

// checkQuiescent verifies an index after its last publish: every churn
// polygon removed, answers equal to a fresh build on the verification
// sample and one pool batch, healthy, and no contained failures.
func (x *expectation) checkQuiescent(e *engine, in *inputs, c *checker) {
	v := e.pin()
	for i, p := range in.verify {
		c.attempted++
		if got := sorted(v.covers(p)); !slices.Equal(got, x.verify[i]) {
			c.fail("verify point %d: Covers %v, fresh index %v", i, got, x.verify[i])
		}
	}
	c.attempted++
	out := v.joinCount(in.batch[0], 1)
	x.checkCounts(0, out.counts, -1, c)
	c.attempted++
	if err := e.healthErr(); err != nil {
		c.fail("%v", err)
	}
	c.attempted++
	if ps := e.publishStats(); ps.failed != 0 || ps.pubPanics != 0 || ps.reconcileAborts != 0 {
		c.fail("publish stats: %d compactions failed, %d publish panics, %d reconcile aborts", ps.failed, ps.pubPanics, ps.reconcileAborts)
	}
}
