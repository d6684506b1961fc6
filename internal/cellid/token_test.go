package cellid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"actjoin/internal/geom"
)

func TestTokenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
		c := FromPoint(p).Parent(rng.Intn(MaxLevel + 1))
		tok := c.Token()
		if got := FromToken(tok); got != c {
			t.Fatalf("round trip failed: %v -> %q -> %v", c, tok, got)
		}
		if len(tok) == 0 || len(tok) > 16 {
			t.Fatalf("token length %d", len(tok))
		}
		if tok[len(tok)-1] == '0' {
			t.Fatalf("token %q has trailing zero", tok)
		}
	}
}

func TestTokenInvalid(t *testing.T) {
	if CellID(0).Token() != "X" {
		t.Error("invalid id token must be X")
	}
	for _, s := range []string{"", "X", "zz", "12345678901234567", "g1"} {
		if got := FromToken(s); got != 0 {
			t.Errorf("FromToken(%q) = %v, want 0", s, got)
		}
	}
	if got := FromToken("ABC"); got != FromToken("abc") {
		t.Error("token parsing must be case-insensitive")
	}
}

func TestTokenPrefixProperty(t *testing.T) {
	// Tokens of 4-level-aligned ancestors are string prefixes of their
	// descendants' tokens (each hex digit encodes two quadtree levels).
	f := func(lon, lat float64, l8 uint8) bool {
		lon = mod(lon, 360) - 180
		lat = mod(lat, 180) - 90
		leaf := FromPoint(geom.Point{X: lon, Y: lat})
		level := int(l8)%12 + 2
		level -= level % 2 // 2-level alignment = whole hex digits
		anc := leaf.Parent(level)
		child := leaf.Parent(level + 2)
		at, ct := anc.Token(), child.Token()
		// The ancestor token minus its sentinel digit prefixes the child.
		return len(at) >= 1 && len(ct) >= len(at) &&
			ct[:len(at)-1] == at[:len(at)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func mod(v, m float64) float64 {
	v = v - m*float64(int(v/m))
	if v < 0 {
		v += m
	}
	return v
}

// TestNYCLeafTokens pins the encoding of a few New York landmarks, so any
// change to the projection or the Hilbert walk — in FromPoint or in the
// batch kernel — shows up as a changed token rather than only as a
// disagreement between the two encoders.
func TestNYCLeafTokens(t *testing.T) {
	for _, tc := range []struct {
		p           geom.Point
		leaf, lvl22 string
	}{
		{geom.Point{X: -73.9857, Y: 40.7484}, "78347f107fc731bd", "78347f107fc7"}, // Empire State Building
		{geom.Point{X: -74.0445, Y: 40.6892}, "78347de374cf45a7", "78347de374cf"}, // Statue of Liberty
		{geom.Point{X: -73.9681, Y: 40.7851}, "783380a13740fdc1", "783380a13741"}, // Central Park
		{geom.Point{X: -73.7781, Y: 40.6413}, "783470517643278b", "783470517643"}, // JFK airport
	} {
		if got := FromPoint(tc.p).Token(); got != tc.leaf {
			t.Errorf("FromPoint(%v) token %q, want %q", tc.p, got, tc.leaf)
		}
		var key [1]uint64
		FromPointsBatch(key[:], []geom.Point{tc.p}, 22)
		const drop = 2*(MaxLevel-22) + 1
		if got := CellID(key[0]<<drop | 1).Parent(22).Token(); got != tc.lvl22 {
			t.Errorf("FromPointsBatch(%v) level-22 token %q, want %q", tc.p, got, tc.lvl22)
		}
	}
}
