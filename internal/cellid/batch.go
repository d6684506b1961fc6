package cellid

import "actjoin/internal/geom"

// FromPointsBatch converts a batch of points to probe keys truncated at the
// given level: keys[i] = uint64(FromPoint(pts[i])) >> (2*(MaxLevel-level)+1),
// the face and the first `level` Hilbert steps of each point's leaf cell. A
// probe against an index whose deepest cell sits at `level` reads no other
// bit of the leaf id, so the batch join rebuilds a probe-equivalent leaf as
// key<<drop | 1 and never computes the levels below. level must lie in
// [0, MaxLevel] and keys must be at least as long as pts.
//
// Points are converted four at a time, stage by stage: the four projections
// and the four Hilbert table walks are independent dependency chains, so
// interleaving them lets an out-of-order core overlap their latencies
// instead of waiting out one point's chain before starting the next.
//
//act:hotpath
func FromPointsBatch(keys []uint64, pts []geom.Point, level int) {
	keys = keys[:len(pts)]
	// The walk treats i and j as 32-bit coordinates, i.e. two leading zero
	// levels above level 1, so every step consumes a whole lookupPos nibble.
	// Those two levels emit path 00 and return to orientation 0, leaving
	// the real path bits below them unchanged.
	steps := (level + 5) / 4 // ceil((level+2)/4)
	stop := uint(32 - 4*steps)
	faceShift := uint(2 * (4*steps - 2))
	outShift := uint(2 * (4*steps - 2 - level))
	k := 0
	for ; k+4 <= len(pts); k += 4 {
		p := pts[k : k+4 : k+4]
		f0, i0, j0 := project(p[0])
		f1, i1, j1 := project(p[1])
		f2, i2, j2 := project(p[2])
		f3, i3, j3 := project(p[3])
		var q0, q1, q2, q3 uint64
		var o0, o1, o2, o3 uint32
		for shift := uint(28); ; shift -= 4 {
			v0 := lookupPos[((i0>>shift)&0xF<<6|(j0>>shift)&0xF<<2|o0)&1023]
			v1 := lookupPos[((i1>>shift)&0xF<<6|(j1>>shift)&0xF<<2|o1)&1023]
			v2 := lookupPos[((i2>>shift)&0xF<<6|(j2>>shift)&0xF<<2|o2)&1023]
			v3 := lookupPos[((i3>>shift)&0xF<<6|(j3>>shift)&0xF<<2|o3)&1023]
			q0, o0 = q0<<8|uint64(v0>>2), v0&3
			q1, o1 = q1<<8|uint64(v1>>2), v1&3
			q2, o2 = q2<<8|uint64(v2>>2), v2&3
			q3, o3 = q3<<8|uint64(v3>>2), v3&3
			if shift == stop {
				break
			}
		}
		out := keys[k : k+4 : k+4]
		out[0] = (f0<<faceShift | q0) >> outShift
		out[1] = (f1<<faceShift | q1) >> outShift
		out[2] = (f2<<faceShift | q2) >> outShift
		out[3] = (f3<<faceShift | q3) >> outShift
	}
	for ; k < len(pts); k++ {
		f, i, j := project(pts[k])
		var q uint64
		var o uint32
		for shift := uint(28); ; shift -= 4 {
			v := lookupPos[((i>>shift)&0xF<<6|(j>>shift)&0xF<<2|o)&1023]
			q, o = q<<8|uint64(v>>2), v&3
			if shift == stop {
				break
			}
		}
		keys[k] = (f<<faceShift | q) >> outShift
	}
}

// project is FromPoint's projection stage: the face and the leaf-grid
// coordinates of p, with the same float operations as faceOf, faceRect and
// stToIJ. Truncating instead of flooring gives the same grid coordinate,
// because the two only differ on negative values, which clamp to 0 either
// way. It is written out instead of calling those helpers because it must
// inline into the four-way loop: composed from them, the kernel costs about
// half as much again per point.
func project(p geom.Point) (face uint64, i, j uint32) {
	col := int((p.X + 180) / 120)
	if col < 0 {
		col = 0
	} else if col > 2 {
		col = 2
	}
	row, loY := 0, -90.0
	if p.Y >= 0 {
		row, loY = 1, 0
	}
	s := (p.X - (-180 + 120*float64(col))) / 120
	t := (p.Y - loY) / 90
	return uint64(row*3 + col), gridCoord(s), gridCoord(t)
}

// gridCoord is stToIJ without the floor (see project).
func gridCoord(s float64) uint32 {
	v := int(s * (1 << MaxLevel))
	if v < 0 {
		return 0
	}
	if v >= 1<<MaxLevel {
		return 1<<MaxLevel - 1
	}
	return uint32(v)
}
