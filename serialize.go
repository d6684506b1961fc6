package actjoin

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"actjoin/internal/cellid"
	"actjoin/internal/fault"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

// Index serialization. The on-disk format stores the polygons and the
// frozen super covering — the two inputs every in-memory structure derives
// from — so a loaded index is bit-identical in behaviour to the saved one
// (including training effects, which live in the super covering). The trie
// is rebuilt on load, which keeps the format independent of arena layout.
// The same goes for the writer's per-polygon cell directory: re-inserting
// the frozen cells rebuilds it as a side effect, so it needs no on-disk
// representation and a loaded index removes polygons in O(footprint) just
// like the index that was saved (tombstoned polygons have no cells and thus
// no directory entries).
//
// Serialization reads from a Snapshot, which owns a frozen copy of exactly
// those two inputs: WriteTo can therefore run concurrently with writers on
// the owning Index and always serializes the consistent state the snapshot
// was published with. The format records no shard layout: a stream written
// at any shard count loads into a one-shard index.
//
// Layout (little-endian):
//
//	magic "ACTJ" | version u32 | crc32 u32 of everything after the header |
//	delta u32 | precisionMeters f64 | precisionLevel u32 |
//	numPolys u32 { numRings u32 { numVerts u32 { lon f64, lat f64 } } } |
//	numCells u64 { cellID u64, numRefs u32 { ref u32 } }

const (
	indexMagic   = "ACTJ"
	indexVersion = 1
)

// WriteTo serializes the snapshot. It implements io.WriterTo and is safe to
// run concurrently with mutations on the owning Index. Shard ranges are
// contiguous and the super covering disjoint, so concatenating the shards'
// frozen cells in shard order IS global cell-id order, and the polygon set
// is the shards' nil-masked slices merged by first non-nil slot. An index
// whose covering never needed boundary decomposition (see the Index type
// comment) therefore serializes byte-identically at every shard count, and
// ReadIndexFrom loads any stream into an equivalent one-shard index.
//
//act:seam
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	if err := fault.Hit(fault.SerializeWrite); err != nil {
		return 0, err
	}
	ropes := make([]*cellRope, len(s.shards))
	for i, sh := range s.shards {
		ropes[i] = sh.cells
	}
	sh0 := s.shards[0]
	body := appendIndexBody(nil, sh0.opt, sh0.precisionLevel, s.mergedPolys(), ropes...)
	return writeIndexPayload(w, body)
}

// mergedPolys merges the shards' nil-masked polygon slices into the global
// one: each live polygon is present (identically) in every owner shard, so
// the first non-nil slot wins; slots nil everywhere are tombstones in every
// shard and stay tombstones.
func (s *Snapshot) mergedPolys() []*geom.Polygon {
	if len(s.shards) == 1 {
		return s.shards[0].polys
	}
	out := make([]*geom.Polygon, s.NumPolygons())
	for _, sh := range s.shards {
		for i, p := range sh.polys {
			if p != nil && out[i] == nil {
				out[i] = p
			}
		}
	}
	return out
}

// appendIndexBody serializes the format's body — configuration, polygon set
// and frozen cells. The ropes are concatenated in argument order: WriteTo
// passes the shards' ropes in shard order, which is global cell-id order
// because shard ranges are contiguous and the super covering disjoint.
func appendIndexBody(body []byte, opt options, precisionLevel int, polys []*geom.Polygon, ropes ...*cellRope) []byte {
	body = binary.LittleEndian.AppendUint32(body, uint32(opt.delta))
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(opt.precisionMeters))
	body = binary.LittleEndian.AppendUint32(body, uint32(precisionLevel))

	body = binary.LittleEndian.AppendUint32(body, uint32(len(polys)))
	for _, p := range polys {
		if p == nil {
			// Tombstone of a removed polygon: zero rings.
			body = binary.LittleEndian.AppendUint32(body, 0)
			continue
		}
		body = binary.LittleEndian.AppendUint32(body, uint32(len(p.Rings)))
		for _, ring := range p.Rings {
			body = binary.LittleEndian.AppendUint32(body, uint32(len(ring)))
			for _, v := range ring {
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v.X))
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v.Y))
			}
		}
	}

	total := 0
	for _, rope := range ropes {
		total += rope.Len()
	}
	body = binary.LittleEndian.AppendUint64(body, uint64(total))
	for _, rope := range ropes {
		for _, run := range rope.runs {
			for _, c := range run {
				body = binary.LittleEndian.AppendUint64(body, uint64(c.ID))
				body = binary.LittleEndian.AppendUint32(body, uint32(len(c.Refs)))
				for _, r := range c.Refs {
					body = binary.LittleEndian.AppendUint32(body, uint32(r))
				}
			}
		}
	}
	return body
}

// writeIndexPayload frames a serialized body with the magic, version and
// checksum header and writes the whole payload.
func writeIndexPayload(w io.Writer, body []byte) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(b []byte) error {
		m, err := bw.Write(b)
		n += int64(m)
		return err
	}
	if err := write([]byte(indexMagic)); err != nil {
		return n, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], indexVersion)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	if err := write(hdr[:]); err != nil {
		return n, err
	}
	if err := write(body); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadIndexFrom deserializes an index written by Snapshot.WriteTo into a
// one-shard Index.
//
//act:exclusive
//act:seam
func ReadIndexFrom(r io.Reader) (*Index, error) {
	if err := fault.Hit(fault.SerializeRead); err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	head := make([]byte, 4+8)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("actjoin: reading header: %w", err)
	}
	if string(head[:4]) != indexMagic {
		return nil, errors.New("actjoin: not an index file (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != indexVersion {
		return nil, fmt.Errorf("actjoin: unsupported index version %d", v)
	}
	wantCRC := binary.LittleEndian.Uint32(head[8:])

	body, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("actjoin: reading body: %w", err)
	}
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, errors.New("actjoin: index file corrupted (crc mismatch)")
	}

	d := &decoder{buf: body}
	delta := int(d.u32())
	precision := math.Float64frombits(d.u64())
	precisionLevel := int(d.u32())

	// Every count below is validated against the input actually left before
	// anything is allocated from it: a hostile header can claim 2^26
	// vertices in a 30-byte file, and the per-item minimum sizes turn each
	// claim into a cheap upper bound on what the remaining bytes could hold.
	numPolys := int(d.u32())
	if d.err != nil || numPolys < 0 || numPolys > MaxPolygons {
		return nil, fmt.Errorf("actjoin: corrupt polygon count")
	}
	if numPolys*4 > d.remaining() {
		return nil, fmt.Errorf("actjoin: polygon count %d exceeds remaining input (%d bytes)", numPolys, d.remaining())
	}
	polys := make([]*geom.Polygon, 0, numPolys)
	for i := 0; i < numPolys; i++ {
		numRings := int(d.u32())
		if d.err != nil || numRings < 0 || numRings > 1<<20 {
			return nil, fmt.Errorf("actjoin: polygon %d: corrupt ring count", i)
		}
		if numRings*4 > d.remaining() {
			return nil, fmt.Errorf("actjoin: polygon %d: ring count %d exceeds remaining input (%d bytes)", i, numRings, d.remaining())
		}
		if numRings == 0 {
			polys = append(polys, nil) // tombstone of a removed polygon
			continue
		}
		rings := make([]geom.Ring, 0, numRings)
		for ri := 0; ri < numRings; ri++ {
			numVerts := int(d.u32())
			if d.err != nil || numVerts < 3 || numVerts > 1<<26 {
				return nil, fmt.Errorf("actjoin: polygon %d ring %d: corrupt vertex count", i, ri)
			}
			if numVerts*16 > d.remaining() {
				return nil, fmt.Errorf("actjoin: polygon %d ring %d: vertex count %d exceeds remaining input (%d bytes)", i, ri, numVerts, d.remaining())
			}
			ring := make(geom.Ring, numVerts)
			for vi := 0; vi < numVerts; vi++ {
				ring[vi] = geom.Point{
					X: math.Float64frombits(d.u64()),
					Y: math.Float64frombits(d.u64()),
				}
			}
			rings = append(rings, ring)
		}
		p, err := geom.NewPolygon(rings...)
		if err != nil {
			return nil, fmt.Errorf("actjoin: polygon %d: %w", i, err)
		}
		polys = append(polys, p)
	}

	numCells := int(d.u64())
	if d.err != nil || numCells < 0 {
		return nil, fmt.Errorf("actjoin: corrupt cell count")
	}
	// Minimum cell record: 8-byte id + 4-byte ref count + one 4-byte ref.
	if numCells > d.remaining()/16 {
		return nil, fmt.Errorf("actjoin: cell count %d exceeds remaining input (%d bytes)", numCells, d.remaining())
	}
	sc := supercover.New()
	rbuf := make([]refs.Ref, 0, 8)
	for i := 0; i < numCells; i++ {
		id := cellid.CellID(d.u64())
		numRefs := int(d.u32())
		if d.err != nil || numRefs <= 0 || numRefs > 1<<24 {
			return nil, fmt.Errorf("actjoin: cell %d: corrupt ref count", i)
		}
		if numRefs*4 > d.remaining() {
			return nil, fmt.Errorf("actjoin: cell %d: ref count %d exceeds remaining input (%d bytes)", i, numRefs, d.remaining())
		}
		if !id.IsValid() {
			return nil, fmt.Errorf("actjoin: cell %d: invalid cell id", i)
		}
		rbuf = rbuf[:0]
		for ri := 0; ri < numRefs; ri++ {
			rbuf = append(rbuf, refs.Ref(d.u32()))
		}
		sc.Insert(id, rbuf)
	}
	if d.err != nil {
		return nil, fmt.Errorf("actjoin: truncated index file")
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("actjoin: %d trailing bytes in index file", len(d.buf))
	}

	if delta != 1 && delta != 2 && delta != 4 {
		return nil, fmt.Errorf("actjoin: corrupt granularity %d", delta)
	}
	o := options{delta: delta, precisionMeters: precision, coveringCells: 128, interiorCells: 256}
	owners := make([]uint64, len(polys))
	for i, p := range polys {
		if p != nil {
			owners[i] = 1
		}
	}
	sh := &shard{polys: polys, sc: sc, opt: o, precisionLevel: precisionLevel}
	return newIndex([]*shard{sh}, shardRouter{}, o, precisionLevel, owners)
}

// decoder is a bounds-checked little-endian reader over a byte slice.
type decoder struct {
	buf []byte
	err error
}

// remaining returns the unread byte count, for validating claimed record
// counts before allocating for them.
func (d *decoder) remaining() int { return len(d.buf) }

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}
