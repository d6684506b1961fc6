package actjoin

import (
	"fmt"
	"math"
	"unsafe"

	"actjoin/internal/act"
	"actjoin/internal/geom"
	"actjoin/internal/join"
	"actjoin/internal/refs"
)

// Point is a geographic location in degrees.
type Point struct {
	Lon, Lat float64
}

// Ring is a closed polygon ring; the closing vertex must not be repeated.
type Ring []Point

// Polygon is an area with an exterior ring and optional holes.
type Polygon struct {
	Exterior Ring
	Holes    []Ring
}

// PolygonID identifies a polygon by its position in the slice passed to
// NewIndex (or NewShardedIndex); polygons added later get the next ids.
type PolygonID = uint32

// MaxPolygons is the largest indexable polygon count (30-bit ids, as in the
// paper's tagged-entry encoding).
const MaxPolygons = refs.MaxPolygonID + 1

// options collect the build configuration.
type options struct {
	precisionMeters float64
	delta           int
	coveringCells   int
	interiorCells   int
}

// Option configures NewIndex.
type Option func(*options) error

// WithPrecision enables the approximate mode with the given distance bound
// in meters: every point reported for a polygon is inside it or within
// `meters` of it, and approximate queries never run PIP tests. The paper's
// headline configuration is 4 meters.
func WithPrecision(meters float64) Option {
	return func(o *options) error {
		if meters <= 0 || math.IsNaN(meters) || math.IsInf(meters, 0) {
			return fmt.Errorf("actjoin: invalid precision %v", meters)
		}
		o.precisionMeters = meters
		return nil
	}
}

// WithGranularity sets the trie granularity δ — quadtree levels per radix
// level. Valid values are 1, 2 and 4 (ACT1/ACT2/ACT4); the default is 4,
// the paper's fastest configuration.
func WithGranularity(delta int) Option {
	return func(o *options) error {
		if delta != 1 && delta != 2 && delta != 4 {
			return fmt.Errorf("actjoin: granularity must be 1, 2 or 4, got %d", delta)
		}
		o.delta = delta
		return nil
	}
}

// WithCoveringBudget overrides the per-polygon approximation budgets (the
// paper's defaults are 128 covering cells and 256 interior cells).
func WithCoveringBudget(coveringCells, interiorCells int) Option {
	return func(o *options) error {
		if coveringCells < 4 || interiorCells < 0 {
			return fmt.Errorf("actjoin: invalid covering budget %d/%d", coveringCells, interiorCells)
		}
		o.coveringCells = coveringCells
		o.interiorCells = interiorCells
		return nil
	}
}

// buildOptions folds the option list over the package defaults.
func buildOptions(opts []Option) (options, error) {
	o := options{delta: act.Delta4, coveringCells: 128, interiorCells: 256}
	for _, fn := range opts {
		if err := fn(&o); err != nil {
			return options{}, err
		}
	}
	return o, nil
}

func toGeom(p Polygon) (*geom.Polygon, error) {
	rings := make([]geom.Ring, 0, 1+len(p.Holes))
	conv := func(r Ring) (geom.Ring, error) {
		out := make(geom.Ring, len(r))
		for i, v := range r {
			if math.IsNaN(v.Lon) || math.IsNaN(v.Lat) ||
				v.Lon < -180 || v.Lon > 180 || v.Lat < -90 || v.Lat > 90 {
				return nil, fmt.Errorf("vertex %d out of range: (%v, %v)", i, v.Lon, v.Lat)
			}
			out[i] = geom.Point{X: v.Lon, Y: v.Lat}
		}
		return out, nil
	}
	ext, err := conv(p.Exterior)
	if err != nil {
		return nil, err
	}
	rings = append(rings, ext)
	for _, h := range p.Holes {
		hr, err := conv(h)
		if err != nil {
			return nil, err
		}
		rings = append(rings, hr)
	}
	return geom.NewPolygon(rings...)
}

// The batch queries read the caller's points in place: Point and
// geom.Point share one layout (two float64 coordinates, longitude first),
// so a []Point is viewed as a []geom.Point without a copy. These
// declarations stop the build if the layouts ever diverge.
var (
	_ [unsafe.Sizeof(Point{}) - unsafe.Sizeof(geom.Point{})]struct{}
	_ [unsafe.Sizeof(geom.Point{}) - unsafe.Sizeof(Point{})]struct{}
	_ [unsafe.Offsetof(Point{}.Lat) - unsafe.Offsetof(geom.Point{}.Y)]struct{}
	_ [unsafe.Offsetof(geom.Point{}.Y) - unsafe.Offsetof(Point{}.Lat)]struct{}
)

// geomPoints views points as the geometry layer's point type.
func geomPoints(points []Point) []geom.Point {
	return unsafe.Slice((*geom.Point)(unsafe.Pointer(unsafe.SliceData(points))), len(points))
}

func toJoinResult(res join.Result) JoinResult {
	return JoinResult{
		Counts:         res.Counts,
		PIPTests:       res.PIPTests,
		STHPercent:     res.STHPercent(),
		CacheHits:      res.CacheHits,
		Duration:       res.Duration,
		ThroughputMpts: res.ThroughputMpts(),
	}
}
