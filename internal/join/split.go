// Stream splitting for sharded indexes: a sharded engine partitions the
// covering into contiguous cell-id ranges, so a stream of points
// radix-splits into per-shard sub-streams that each shard processes on its
// own (Tsitsigkos et al., "Two-layer Space-oriented Partitioning": partition
// once, then run the per-partition work with no coordination). Training
// splits its query stream this way; batch joins do not split at all, they
// route runs of a global schedule (see batch.go).
package join

import (
	"sort"

	"actjoin/internal/cellid"
)

// PartitionByShard stable-partitions a probe stream into the contiguous
// cell-id ranges of a sharded index. bounds are the sorted, strictly
// increasing split points: shard i owns the leaf ids in
// [bounds[i-1], bounds[i]) (with virtual bounds at the id-space ends), so
// the stream splits into len(bounds)+1 buckets.
//
// The returned order holds the input positions grouped by shard, preserving
// input order within each shard (a stable counting sort); offsets[i] and
// offsets[i+1] delimit shard i's positions in order. Gathering
// cells[order[k]] for k in [offsets[i], offsets[i+1]) yields shard i's
// probe sub-stream; results scatter back through the same positions.
func PartitionByShard(cells []cellid.CellID, bounds []cellid.CellID) (order []int32, offsets []int) {
	nshards := len(bounds) + 1
	offsets = make([]int, nshards+1)
	if len(cells) == 0 {
		return nil, offsets
	}
	shardOf := func(leaf cellid.CellID) int {
		return sort.Search(len(bounds), func(i int) bool { return bounds[i] > leaf })
	}
	buckets := make([]int32, len(cells))
	counts := make([]int, nshards)
	for i, c := range cells {
		b := shardOf(c)
		buckets[i] = int32(b)
		counts[b]++
	}
	sum := 0
	for i, c := range counts {
		offsets[i] = sum
		sum += c
	}
	offsets[nshards] = sum
	next := make([]int, nshards)
	copy(next, offsets[:nshards])
	order = make([]int32, len(cells))
	for i := range cells {
		b := buckets[i]
		order[next[b]] = int32(i)
		next[b]++
	}
	return order, offsets
}
