package geom

import (
	"errors"
	"fmt"
)

// Ring is a closed polyline: consecutive vertices are connected, and the
// last vertex connects back to the first. The closing vertex must not be
// repeated.
type Ring []Point

// Edge returns the i-th edge of the ring (0 <= i < len(r)).
func (r Ring) Edge(i int) Segment {
	j := i + 1
	if j == len(r) {
		j = 0
	}
	return Segment{r[i], r[j]}
}

// Bound returns the bounding rect of the ring.
func (r Ring) Bound() Rect {
	b := EmptyRect()
	for _, p := range r {
		b = b.AddPoint(p)
	}
	return b
}

// SignedArea returns the signed area of the ring (positive when the
// vertices are in counter-clockwise order).
func (r Ring) SignedArea() float64 {
	var a float64
	for i, p := range r {
		q := r[(i+1)%len(r)]
		a += p.Cross(q)
	}
	return a / 2
}

// containsPoint reports whether p is inside the ring region using the
// ray-crossing (even-odd) rule.
func (r Ring) containsPoint(p Point) bool {
	inside := false
	n := len(r)
	for i := 0; i < n; i++ {
		if (Segment{r[i], r[(i+1)%n]}).CrossesVertical(p) {
			inside = !inside
		}
	}
	return inside
}

// Polygon is a polygon with optional holes. Rings[0] is the outer boundary;
// any further rings are holes. Point containment follows the even-odd rule
// over all rings with the half-open edge rule of Segment.CrossesVertical:
// interior points are inside and exterior points outside, and a boundary
// point counts as inside exactly when the polygon holds the points
// infinitesimally to its right (on a horizontal edge: infinitesimally
// above it). Unlike ST_Covers, which includes the whole boundary, this
// assigns every point of a boundary shared by several polygons of a
// tessellation to exactly one of them, so a join counts each point once;
// points on the top or right side of the tessellation's outer boundary
// belong to none.
type Polygon struct {
	Rings []Ring

	bound    Rect
	numEdges int
}

// NewPolygon builds a polygon from an outer ring and optional holes, and
// precomputes its bounding rect. It returns an error for rings with fewer
// than three vertices.
func NewPolygon(rings ...Ring) (*Polygon, error) {
	if len(rings) == 0 {
		return nil, errors.New("geom: polygon needs at least one ring")
	}
	for i, r := range rings {
		if len(r) < 3 {
			return nil, fmt.Errorf("geom: ring %d has %d vertices, need >= 3", i, len(r))
		}
	}
	p := &Polygon{Rings: rings}
	p.bound = EmptyRect()
	for _, r := range rings {
		p.bound = p.bound.Union(r.Bound())
		p.numEdges += len(r)
	}
	return p, nil
}

// MustPolygon is NewPolygon that panics on invalid input; intended for
// tests and generators with known-good data.
func MustPolygon(rings ...Ring) *Polygon {
	p, err := NewPolygon(rings...)
	if err != nil {
		panic(err)
	}
	return p
}

// Bound returns the precomputed minimum bounding rectangle (MBR).
func (p *Polygon) Bound() Rect { return p.bound }

// NumEdges returns the total edge count across all rings. The paper's PIP
// cost model is linear in this number.
func (p *Polygon) NumEdges() int { return p.numEdges }

// NumVertices returns the total vertex count across all rings.
func (p *Polygon) NumVertices() int { return p.numEdges }

// Edge returns the i-th edge in ring-major order (0 <= i < NumEdges()).
func (p *Polygon) Edge(i int) Segment {
	for _, r := range p.Rings {
		if i < len(r) {
			return r.Edge(i)
		}
		i -= len(r)
	}
	panic("geom: edge index out of range")
}

// ContainsPoint is the point-in-polygon (PIP) test: the ray-crossing
// algorithm described in Section 2 of the paper, O(NumEdges).
func (p *Polygon) ContainsPoint(pt Point) bool {
	if !p.bound.ContainsPoint(pt) {
		return false
	}
	inside := false
	for _, r := range p.Rings {
		if r.containsPoint(pt) {
			inside = !inside
		}
	}
	return inside
}

// Area returns the area of the polygon (outer area minus holes), assuming
// well-formed rings.
func (p *Polygon) Area() float64 {
	var a float64
	for i, r := range p.Rings {
		ra := r.SignedArea()
		if ra < 0 {
			ra = -ra
		}
		if i == 0 {
			a += ra
		} else {
			a -= ra
		}
	}
	return a
}

// RectRelation classifies how the closed rect r relates to the polygon
// region. It is the predicate that drives covering construction, precision
// refinement and training in the paper.
type RectRelation int

const (
	// RectDisjoint: the rect shares no point with the polygon.
	RectDisjoint RectRelation = iota
	// RectPartial: the polygon boundary passes through the rect (a cell
	// with this relation becomes a boundary / candidate-hit cell).
	RectPartial
	// RectInside: the rect lies entirely in the polygon interior (a cell
	// with this relation becomes an interior / true-hit cell).
	RectInside
)

// String names the relation for test output.
func (rr RectRelation) String() string {
	switch rr {
	case RectDisjoint:
		return "disjoint"
	case RectPartial:
		return "partial"
	case RectInside:
		return "inside"
	}
	return fmt.Sprintf("RectRelation(%d)", int(rr))
}

// RelateRect computes the RectRelation of rect with respect to the polygon.
//
// The logic: if any polygon edge intersects the rect, the boundary passes
// through it (partial). Otherwise the rect is entirely on one side of the
// boundary, so testing the rect center decides between inside and disjoint.
// (The case "polygon strictly inside rect" implies a boundary point inside
// the rect and is therefore already classified partial.)
func (p *Polygon) RelateRect(rect Rect) RectRelation {
	if !p.bound.Intersects(rect) {
		return RectDisjoint
	}
	for _, ring := range p.Rings {
		rb := ring.Bound()
		if !rb.Intersects(rect) {
			continue
		}
		for i := range ring {
			e := ring.Edge(i)
			if e.IntersectsRect(rect) {
				return RectPartial
			}
		}
	}
	if p.ContainsPoint(rect.Center()) {
		return RectInside
	}
	return RectDisjoint
}
