package actjoin

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestAddPolygonAtRuntime(t *testing.T) {
	idx, err := NewIndex(testPolygons()[:2])
	if err != nil {
		t.Fatal(err)
	}
	p := Point{Lon: -73.96, Lat: 40.75}
	if got := idx.Current().Covers(p); len(got) != 0 {
		t.Fatalf("point should match nothing yet: %v", got)
	}

	id, err := idx.Add(testPolygons()[2]) // the hole polygon covering p
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("new id = %d, want 2", id)
	}
	if got := idx.Current().Covers(p); len(got) != 1 || got[0] != id {
		t.Errorf("Covers after Add = %v, want [%d]", got, id)
	}
	// The hole must still be excluded.
	if got := idx.Current().Covers(Point{Lon: -73.965, Lat: 40.765}); len(got) != 0 {
		t.Errorf("hole matched after Add: %v", got)
	}
	// Old polygons unaffected.
	if got := idx.Current().Covers(Point{Lon: -73.985, Lat: 40.715}); len(got) != 1 || got[0] != 0 {
		t.Errorf("polygon 0 lost after Add: %v", got)
	}
}

func TestAddWithPrecisionKeepsBound(t *testing.T) {
	idx, err := NewIndex(testPolygons()[:1], WithPrecision(30))
	if err != nil {
		t.Fatal(err)
	}
	id, err := idx.Add(square(-73.95, 40.75, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	// Approximate matches for the new polygon must respect the bound:
	// sample points near (but outside) the new polygon.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := Point{Lon: -73.96 + rng.Float64()*0.04, Lat: 40.74 + rng.Float64()*0.04}
		for _, got := range idx.Current().CoversApprox(p) {
			if got != id {
				continue
			}
			// Approximate hit: must be inside or within ~30m. A 30m bound
			// at this latitude is ~0.00036 degrees; use a loose envelope.
			inside := p.Lon >= -73.9505 && p.Lon <= -73.9295 && p.Lat >= 40.7495 && p.Lat <= 40.7705
			if !inside {
				t.Fatalf("approx match %v far outside the added polygon", p)
			}
		}
	}
}

// TestAddAtLowerLatitudeKeepsBound: the metric size of a cell grows toward
// the equator, so a polygon added far south of the build set must be
// refined deeper than the build-time level to honor the same meter bound.
// The invariant is checked directly on the published covering: every
// candidate cell referencing the added polygon must have a ground diagonal
// within the bound (an approximate hit is at most that far from the
// polygon).
func TestAddAtLowerLatitudeKeepsBound(t *testing.T) {
	const bound = 60.0
	// Build near 60N, where the level for a 60m bound is coarse (18).
	idx, err := NewIndex([]Polygon{square(10.00, 60.00, 0.02)}, WithPrecision(bound))
	if err != nil {
		t.Fatal(err)
	}
	// Add at the equator, where a level-18 diagonal is ~64m > bound.
	id, err := idx.Add(square(0, 0, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, c := range idx.Current().frozenCells() {
		for _, r := range c.Refs {
			if r.PolygonID() != id || r.Interior() {
				continue
			}
			checked++
			if d := c.ID.DiagonalMeters(); d > bound {
				t.Fatalf("candidate cell %v of the added polygon has diagonal %.1fm > %vm bound",
					c.ID, d, bound)
			}
		}
	}
	if checked == 0 {
		t.Fatal("added polygon has no candidate cells to check")
	}
}

func TestRemovePolygon(t *testing.T) {
	idx, err := NewIndex(testPolygons())
	if err != nil {
		t.Fatal(err)
	}
	inPoly1 := Point{Lon: -73.955, Lat: 40.715}
	if got := idx.Current().Covers(inPoly1); len(got) != 1 || got[0] != 1 {
		t.Fatal("setup: point must be in polygon 1")
	}
	if err := idx.Remove(1); err != nil {
		t.Fatal(err)
	}
	if got := idx.Current().Covers(inPoly1); len(got) != 0 {
		t.Errorf("removed polygon still matches: %v", got)
	}
	if !idx.Current().Removed(1) {
		t.Error("Removed(1) = false")
	}
	// Other polygons unaffected.
	if got := idx.Current().Covers(Point{Lon: -73.985, Lat: 40.715}); len(got) != 1 || got[0] != 0 {
		t.Errorf("polygon 0 lost after Remove: %v", got)
	}
	// Joins keep the counts slice length; the removed slot stays zero.
	res := idx.Current().JoinCount([]Point{inPoly1, {Lon: -73.985, Lat: 40.715}}, QueryOptions{Exact: true, Threads: 1})
	if len(res.Counts) != 3 {
		t.Fatalf("counts length = %d", len(res.Counts))
	}
	if res.Counts[1] != 0 || res.Counts[0] != 1 {
		t.Errorf("counts after remove = %v", res.Counts)
	}
}

func TestRemoveErrors(t *testing.T) {
	idx, err := NewIndex(testPolygons())
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Remove(99); err == nil {
		t.Error("unknown id must fail")
	}
	if err := idx.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := idx.Remove(0); err != ErrRemoved {
		t.Errorf("double remove = %v, want ErrRemoved", err)
	}
}

func TestAddRemoveAddCycle(t *testing.T) {
	idx, err := NewIndex(testPolygons()[:1])
	if err != nil {
		t.Fatal(err)
	}
	// Add a polygon, remove it, add another in the same place: the new id
	// must differ and queries must only see the latest.
	sq := square(-73.90, 40.60, 0.02)
	id1, err := idx.Add(sq)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Remove(id1); err != nil {
		t.Fatal(err)
	}
	id2, err := idx.Add(sq)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 {
		t.Error("removed ids must not be reused")
	}
	p := Point{Lon: -73.89, Lat: 40.61}
	got := idx.Current().Covers(p)
	if len(got) != 1 || got[0] != id2 {
		t.Errorf("Covers = %v, want [%d]", got, id2)
	}
}

func TestAddValidation(t *testing.T) {
	idx, err := NewIndex(testPolygons()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Add(Polygon{Exterior: Ring{{0, 0}, {1, 1}}}); err == nil {
		t.Error("degenerate polygon must be rejected")
	}
	if _, err := idx.Add(square(999, 0, 1)); err == nil {
		t.Error("out-of-range polygon must be rejected")
	}
	// Failed adds must not leak a polygon slot.
	if got := idx.Current().Stats().NumPolygons; got != 1 {
		t.Errorf("failed Add leaked a slot: %d polygons", got)
	}
}

func TestApplyPublishesOnce(t *testing.T) {
	idx, err := NewIndex(testPolygons()[:1])
	if err != nil {
		t.Fatal(err)
	}
	before := idx.Current()
	var id1, id2 PolygonID
	err = idx.Apply(func(tx *Tx) error {
		var err error
		if id1, err = tx.Add(square(-73.90, 40.60, 0.02)); err != nil {
			return err
		}
		if id2, err = tx.Add(square(-73.87, 40.60, 0.02)); err != nil {
			return err
		}
		if err := tx.Remove(id1); err != nil {
			return err
		}
		// Nothing is visible until Apply returns: the published snapshot
		// is still the pre-transaction one.
		if idx.Current() != before {
			t.Error("Apply published mid-transaction")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := idx.Current()
	if snap == before {
		t.Fatal("Apply did not publish")
	}
	if got := snap.Covers(Point{Lon: -73.89, Lat: 40.61}); len(got) != 0 {
		t.Errorf("polygon added+removed in one batch still matches: %v", got)
	}
	if got := snap.Covers(Point{Lon: -73.86, Lat: 40.61}); len(got) != 1 || got[0] != id2 {
		t.Errorf("batched add lost: %v, want [%d]", got, id2)
	}
	if !snap.Removed(id1) {
		t.Error("batched remove lost")
	}
}

func TestApplyRollsBackOnError(t *testing.T) {
	idx, err := NewIndex(testPolygons()[:2], WithPrecision(30))
	if err != nil {
		t.Fatal(err)
	}
	before := idx.Current()
	boom := errors.New("boom")
	err = idx.Apply(func(tx *Tx) error {
		if _, err := tx.Add(square(-73.90, 40.60, 0.02)); err != nil {
			return err
		}
		if err := tx.Remove(0); err != nil {
			return err
		}
		tx.Train([]Point{{Lon: -73.97, Lat: 40.71}}, 0)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Apply error = %v, want boom", err)
	}
	if idx.Current() != before {
		t.Error("failed Apply must not publish")
	}
	// The writer state must be rolled back too: the next mutation starts
	// from the published snapshot, not from the aborted transaction.
	id, err := idx.Add(square(-73.85, 40.60, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("id after rollback = %d, want 2 (aborted add must not consume a slot)", id)
	}
	snap := idx.Current()
	if got := snap.Covers(Point{Lon: -73.985, Lat: 40.715}); len(got) != 1 || got[0] != 0 {
		t.Errorf("aborted remove still applied: %v", got)
	}
	if got := snap.Covers(Point{Lon: -73.89, Lat: 40.61}); len(got) != 0 {
		t.Errorf("aborted add still applied: %v", got)
	}
	if got := snap.Covers(Point{Lon: -73.84, Lat: 40.61}); len(got) != 1 || got[0] != id {
		t.Errorf("post-rollback add lost: %v", got)
	}
}

func TestApplyRollsBackOnPanic(t *testing.T) {
	idx, err := NewIndex(testPolygons()[:2])
	if err != nil {
		t.Fatal(err)
	}
	before := idx.Current()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate out of Apply")
			}
		}()
		idx.Apply(func(tx *Tx) error {
			if _, err := tx.Add(square(-73.90, 40.60, 0.02)); err != nil {
				return err
			}
			panic("mid-transaction failure")
		})
	}()
	if idx.Current() != before {
		t.Error("panicked Apply must not publish")
	}
	// The staged add must not leak into the next publish.
	id, err := idx.Add(square(-73.85, 40.60, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("id after panic rollback = %d, want 2", id)
	}
	if got := idx.Current().Covers(Point{Lon: -73.89, Lat: 40.61}); len(got) != 0 {
		t.Errorf("aborted add published after panic: %v", got)
	}
}

func TestApplyTxTrain(t *testing.T) {
	idx, err := NewIndex(testPolygons())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var train []Point
	for i := 0; i < 3000; i++ {
		train = append(train, Point{Lon: -73.97 + (rng.Float64()-0.5)*0.002, Lat: 40.70 + rng.Float64()*0.03})
	}
	before := idx.Current().Stats().NumCells
	if err := idx.Apply(func(tx *Tx) error {
		tx.Train(train, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	after := idx.Current().Stats().NumCells
	if after <= before {
		t.Fatalf("transactional training must split cells: %d cells before the commit, %d after", before, after)
	}
	if got := writerCells(idx); len(got) != after {
		t.Errorf("published cells %d != writer cells %d", after, len(got))
	}
}

func TestTxInvalidOutsideApply(t *testing.T) {
	idx, err := NewIndex(testPolygons()[:1])
	if err != nil {
		t.Fatal(err)
	}
	var leaked *Tx
	if err := idx.Apply(func(tx *Tx) error { leaked = tx; return nil }); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("using a Tx after Apply must panic")
		}
	}()
	leaked.Remove(0)
}

func TestSerializeAfterUpdates(t *testing.T) {
	idx, err := NewIndex(testPolygons())
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Remove(1); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Add(square(-73.90, 40.60, 0.02)); err != nil {
		t.Fatal(err)
	}
	// Tombstones round-trip as zero-ring polygons.
	var buf bytes.Buffer
	if _, err := idx.Current().WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo after updates: %v", err)
	}
	loaded, err := ReadIndexFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Current().Removed(1) {
		t.Error("tombstone lost in round trip")
	}
	// The loaded index answers like the original.
	pts := []Point{
		{Lon: -73.955, Lat: 40.715}, // was polygon 1, removed
		{Lon: -73.985, Lat: 40.715}, // polygon 0
		{Lon: -73.89, Lat: 40.61},   // the added square
	}
	for _, p := range pts {
		a, b := idx.Current().Covers(p), loaded.Current().Covers(p)
		if len(a) != len(b) {
			t.Fatalf("loaded Covers(%v) = %v, want %v", p, b, a)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("loaded Covers(%v) = %v, want %v", p, b, a)
			}
		}
	}
}
