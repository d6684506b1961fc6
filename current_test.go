package actjoin

import (
	"math/rand"
	"testing"
)

// TestCurrentPointerContract pins Current's identity contract at 1 and 2
// shards: between publishes, repeated calls return the same *Snapshot
// without allocating, and a publish on any one shard makes the next call
// return a new one. Callers (and tests such as TestApplyRollsBackOnError)
// rely on the identity to tell "published" from "did not publish".
func TestCurrentPointerContract(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	polys := make([]Polygon, 40)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	for _, shards := range []int{1, 2} {
		ix, err := NewShardedIndex(polys, shards, WithCoveringBudget(8, 16))
		if err != nil {
			t.Fatal(err)
		}
		if ix.NumShards() != shards {
			t.Fatalf("shards=%d: index has %d shards", shards, ix.NumShards())
		}
		s := ix.Current()
		for i := 0; i < 3; i++ {
			if got := ix.Current(); got != s {
				t.Fatalf("shards=%d: call %d without a publish returned a new snapshot", shards, i)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = ix.Current() }); allocs != 0 {
			t.Fatalf("shards=%d: Current allocates %v times per call between publishes", shards, allocs)
		}

		// Publish on each shard alone: a tiny square well inside one shard's
		// range commits on that shard only.
		for target := 0; target < shards; target++ {
			sq := tinySquare(randPoints(rng, 1)[0])
			for !squareInShard(ix, sq, target) {
				sq = tinySquare(randPoints(rng, 1)[0])
			}
			before := ix.Current()
			prevShards := make([]*shardSnapshot, shards)
			for i, sh := range ix.shards {
				prevShards[i] = sh.Current()
			}
			if _, err := ix.Add(sq); err != nil {
				t.Fatal(err)
			}
			for i, sh := range ix.shards {
				if changed := sh.Current() != prevShards[i]; changed != (i == target) {
					t.Fatalf("shards=%d: add aimed at shard %d changed shard %d's snapshot: %v", shards, target, i, changed)
				}
			}
			after := ix.Current()
			if after == before {
				t.Fatalf("shards=%d: publish on shard %d did not yield a new snapshot", shards, target)
			}
			if again := ix.Current(); again != after {
				t.Fatalf("shards=%d: snapshot after the publish on shard %d is not stable", shards, target)
			}
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// tinySquare returns a square of about 10 m around p.
func tinySquare(p Point) Polygon {
	const h = 0.00005
	return Polygon{Exterior: Ring{
		{Lon: p.Lon - h, Lat: p.Lat - h}, {Lon: p.Lon + h, Lat: p.Lat - h},
		{Lon: p.Lon + h, Lat: p.Lat + h}, {Lon: p.Lon - h, Lat: p.Lat + h},
	}}
}

// squareInShard reports whether every corner of the square routes to shard
// si.
func squareInShard(ix *Index, sq Polygon, si int) bool {
	for _, v := range sq.Exterior {
		if ix.ShardOf(v) != si {
			return false
		}
	}
	return true
}
