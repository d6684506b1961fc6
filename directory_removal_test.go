package actjoin

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// Differential coverage of the per-polygon cell directory: removal through
// the directory must be observationally identical to the full-quadtree walk
// it replaced — same published bytes after every publish, same writer-side
// covering, same footprint accounting — across long interleaved mutation
// sequences including transactions and aborts.

// driveMutations applies a deterministic random mutation sequence to ix and
// returns the serialized bytes of every published snapshot along the way.
// The sequence (and therefore the polygon ids handed out) depends only on
// seed, so two indexes driven with the same seed must publish byte-identical
// snapshot streams regardless of their removal implementation.
func driveMutations(t *testing.T, ix *Index, seed int64, steps int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var published [][]byte
	capture := func() {
		var buf bytes.Buffer
		if _, err := ix.Current().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		published = append(published, buf.Bytes())
	}
	capture()

	var live []PolygonID
	for i := 0; i < ix.Current().NumPolygons(); i++ {
		live = append(live, PolygonID(i))
	}
	removeRandom := func(do func(PolygonID) error) error {
		if len(live) == 0 {
			return nil
		}
		k := rng.Intn(len(live))
		id := live[k]
		live = append(live[:k], live[k+1:]...)
		return do(id)
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // Add
			id, err := ix.Add(randSquare(rng))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case op < 6: // Remove — the path under test, weighted up
			if err := removeRandom(ix.Remove); err != nil {
				t.Fatal(err)
			}
		case op < 7: // Train
			ix.Train(randPoints(rng, 40), 0)
		case op < 9: // committed Apply batch mixing adds and removes
			err := ix.Apply(func(tx *Tx) error {
				for k := 0; k < 1+rng.Intn(3); k++ {
					id, err := tx.Add(randSquare(rng))
					if err != nil {
						return err
					}
					live = append(live, id)
				}
				for k := 0; k < 1+rng.Intn(2); k++ {
					if err := removeRandom(tx.Remove); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		default: // aborted Apply: staged removals must roll back cleanly
			liveBefore := append([]PolygonID(nil), live...)
			err := ix.Apply(func(tx *Tx) error {
				if _, err := tx.Add(randSquare(rng)); err != nil {
					return err
				}
				if err := removeRandom(tx.Remove); err != nil {
					return err
				}
				return errors.New("abort")
			})
			if err == nil {
				t.Fatal("aborting transaction committed")
			}
			live = liveBefore
		}
		capture()
	}
	return published
}

// TestDirectoryRemovalDifferential drives the same long random
// Add/Remove/Train/Apply/abort sequence through a default index (directory
// removal) and an index with the walkRemoval hook set (the pre-directory
// full walk) and
// requires every published snapshot to be byte-identical between the two —
// the directory changes how a polygon's cells are located, never what gets
// published.
func TestDirectoryRemovalDifferential(t *testing.T) {
	configs := []struct {
		name        string
		opts        []Option
		fullPublish bool
	}{
		{"exact", []Option{WithCoveringBudget(8, 16)}, false},
		{"precision", []Option{WithCoveringBudget(8, 16), WithPrecision(2000)}, false},
		{"full-publish", []Option{WithCoveringBudget(8, 16)}, true},
	}
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			seed := int64(4000 + ci)
			rng := rand.New(rand.NewSource(seed))
			polys := make([]Polygon, 25)
			for i := range polys {
				polys[i] = randSquare(rng)
			}
			build := func(walkRemoval bool) *Index {
				ix, err := NewIndex(polys, cfg.opts...)
				if err != nil {
					t.Fatal(err)
				}
				withShards(ix, func(sh *shard) {
					sh.fullPublish = cfg.fullPublish
					sh.walkRemoval = walkRemoval
				})
				return ix
			}
			dir := build(false)
			walk := build(true)

			dirPub := driveMutations(t, dir, seed*7, 60)
			walkPub := driveMutations(t, walk, seed*7, 60)

			if len(dirPub) != len(walkPub) {
				t.Fatalf("publish counts diverged: %d vs %d", len(dirPub), len(walkPub))
			}
			for i := range dirPub {
				if !bytes.Equal(dirPub[i], walkPub[i]) {
					t.Fatalf("publish %d: directory removal and walk removal serialized differently (%d vs %d bytes)",
						i, len(dirPub[i]), len(walkPub[i]))
				}
			}
			validateWriterDirectory(t, dir, "directory index writer state")
			validateWriterDirectory(t, walk, "walk index writer state")
		})
	}
}

// TestFootprintCells covers the public footprint diagnostic: live polygons
// report their covering size, removal zeroes it, and the walk and directory
// modes agree on the touched-cell count.
func TestFootprintCells(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	polys := make([]Polygon, 8)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	ix, err := NewIndex(polys, WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	for id := PolygonID(0); int(id) < len(polys); id++ {
		if ix.FootprintCells(id) == 0 {
			t.Fatalf("polygon %d reports an empty footprint", id)
		}
	}
	if got := ix.FootprintCells(PolygonID(len(polys) + 5)); got != 0 {
		t.Fatalf("unknown polygon footprint = %d", got)
	}
	if err := ix.Remove(3); err != nil {
		t.Fatal(err)
	}
	if got := ix.FootprintCells(3); got != 0 {
		t.Fatalf("footprint after Remove = %d", got)
	}
}

// TestSerializeRoundTripDirectory checks that the per-polygon directory is
// rebuilt on load: after a save/load round trip, tombstoned polygons have no
// directory entries, live polygons keep their footprints, and removal on the
// loaded index behaves identically to removal on the original.
func TestSerializeRoundTripDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	polys := make([]Polygon, 12)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	ix, err := NewIndex(polys, WithCoveringBudget(8, 16), WithPrecision(2000))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []PolygonID{2, 9} {
		if err := ix.Remove(id); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if _, err := ix.Current().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndexFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	validateWriterDirectory(t, loaded, "loaded directory")

	sh := soleShard(loaded)
	sh.mu.Lock()
	ref := sh.sc.ReferencedPolygons()
	sh.mu.Unlock()
	for _, id := range []PolygonID{2, 9} {
		if ref[id] {
			t.Fatalf("tombstoned polygon %d still referenced after reload", id)
		}
		if got := loaded.FootprintCells(id); got != 0 {
			t.Fatalf("tombstoned polygon %d footprint = %d after reload", id, got)
		}
	}
	for id := PolygonID(0); int(id) < len(polys); id++ {
		if id == 2 || id == 9 {
			continue
		}
		if got, want := loaded.FootprintCells(id), ix.FootprintCells(id); got != want {
			t.Fatalf("polygon %d footprint %d after reload, want %d", id, got, want)
		}
	}

	// Removal on the loaded index must publish the same bytes as removal on
	// the original: the rebuilt directory drives it to the same cells.
	if err := ix.Remove(5); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Remove(5); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := ix.Current().WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Current().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("removal after reload diverged from removal on the original index")
	}
}
