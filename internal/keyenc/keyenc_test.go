package keyenc

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bson"
)

func TestEncodeOrderMatchesCompareAcrossTypes(t *testing.T) {
	vals := []any{
		bson.MinKey,
		nil,
		int64(-100), -1.5, int64(0), 0.5, int64(1), int64(7), 123.25, int64(1 << 40),
		"", "a", "a\x00b", "ab", "b",
		bson.FromD(bson.D{{Key: "k", Value: int64(1)}}),
		bson.A{int64(1)}, bson.A{int64(1), int64(2)},
		bson.ObjectID{1, 2, 3},
		false, true,
		time.UnixMilli(-5), time.UnixMilli(0), time.UnixMilli(1700000000000),
		bson.MaxKey,
	}
	for i, a := range vals {
		for j, b := range vals {
			want := sgn(bson.Compare(a, b))
			got := sgn(bytes.Compare(Encode(a), Encode(b)))
			if got != want {
				t.Errorf("order(%v, %v): key order %d, value order %d (i=%d j=%d)",
					bson.FormatValue(a), bson.FormatValue(b), got, want, i, j)
			}
		}
	}
}

func sgn(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

func TestEncodeNumberOrderProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return sgn(bytes.Compare(Encode(a), Encode(b))) == sgn(bson.Compare(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestNumberDecodesEncoding: Number reads back what AppendNumber wrote
// at the head of a composite key, and refuses every other class.
func TestNumberDecodesEncoding(t *testing.T) {
	f := func(v float64, tail int64) bool {
		if math.IsNaN(v) {
			return true
		}
		got, ok := Number(EncodeComposite(v, tail))
		return ok && (got == v || v == 0 && got == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, v := range []int64{0, 1, -1, 1 << 52, -(1 << 40)} {
		if got, ok := Number(Encode(v)); !ok || int64(got) != v {
			t.Errorf("Number(Encode(%d)) = %v, %v", v, got, ok)
		}
	}
	for _, v := range []any{nil, "7", time.UnixMilli(7), true, bson.ObjectID{1}} {
		if _, ok := Number(Encode(v)); ok {
			t.Errorf("Number decoded the non-numeric key of %v", bson.FormatValue(v))
		}
	}
	if _, ok := Number(Encode(int64(3))[:8]); ok {
		t.Error("Number decoded a truncated key")
	}
}

func TestEncodeStringOrderProperty(t *testing.T) {
	f := func(a, b string) bool {
		return sgn(bytes.Compare(Encode(a), Encode(b))) == sgn(bson.Compare(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeTimeOrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ta, tb := time.UnixMilli(a%(1<<50)), time.UnixMilli(b%(1<<50))
		return sgn(bytes.Compare(Encode(ta), Encode(tb))) == sgn(bson.Compare(ta, tb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegativeZeroEncodesLikeZero(t *testing.T) {
	neg := math.Copysign(0, -1)
	if !bytes.Equal(Encode(neg), Encode(0.0)) {
		t.Error("-0.0 and +0.0 encode differently")
	}
}

func TestCompositeTupleOrder(t *testing.T) {
	// (hilbertIndex, date) tuples must order first by index then date.
	t0 := time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC)
	t1 := t0.Add(time.Hour)
	cases := []struct {
		a, b []any
		want int
	}{
		{[]any{int64(1), t1}, []any{int64(2), t0}, -1},
		{[]any{int64(2), t0}, []any{int64(2), t1}, -1},
		{[]any{int64(2), t1}, []any{int64(2), t1}, 0},
		{[]any{int64(3), t0}, []any{int64(2), t1}, 1},
		// A shorter tuple is a strict prefix of its extension.
		{[]any{int64(2)}, []any{int64(2), t0}, -1},
	}
	for _, tc := range cases {
		got := sgn(bytes.Compare(EncodeComposite(tc.a...), EncodeComposite(tc.b...)))
		if got != tc.want {
			t.Errorf("composite order %v vs %v = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestStringPrefixNotConfusedAcrossComponents(t *testing.T) {
	// ("ab", "c") must not collide or misorder with ("a", "bc").
	k1 := EncodeComposite("ab", "c")
	k2 := EncodeComposite("a", "bc")
	if bytes.Equal(k1, k2) {
		t.Fatal("different tuples encode identically")
	}
	// ("a", ...) < ("ab", ...) because "a" < "ab".
	if bytes.Compare(k2, k1) >= 0 {
		t.Fatal("tuple boundary leaked into ordering")
	}
}

func TestPrefixUpperBound(t *testing.T) {
	p := []byte{0x20, 0x80, 0xFF}
	ub := PrefixUpperBound(p)
	if bytes.Compare(ub, p) <= 0 {
		t.Fatal("upper bound not greater than prefix")
	}
	ext := append(bytes.Clone(p), 0xFF, 0xFF, 0xFF)
	if bytes.Compare(ext, ub) >= 0 {
		t.Fatal("extension of prefix not below upper bound")
	}
	if PrefixUpperBound([]byte{0xFF, 0xFF}) != nil {
		t.Fatal("all-0xFF prefix should have no upper bound")
	}
}

func TestPrefixUpperBoundProperty(t *testing.T) {
	f := func(p, suffix []byte) bool {
		ub := PrefixUpperBound(p)
		if ub == nil {
			return true
		}
		ext := append(bytes.Clone(p), suffix...)
		return bytes.Compare(ext, ub) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDocumentAndArrayOrder(t *testing.T) {
	d1 := bson.FromD(bson.D{{Key: "a", Value: int64(1)}})
	d2 := bson.FromD(bson.D{{Key: "a", Value: int64(2)}})
	if bytes.Compare(Encode(d1), Encode(d2)) >= 0 {
		t.Error("document value order wrong")
	}
	a1 := bson.A{int64(1), int64(5)}
	a2 := bson.A{int64(1), int64(6)}
	if bytes.Compare(Encode(a1), Encode(a2)) >= 0 {
		t.Error("array value order wrong")
	}
}

func TestEncodeMinMaxKeyBracketEverything(t *testing.T) {
	lo, hi := Encode(bson.MinKey), Encode(bson.MaxKey)
	for _, v := range []any{nil, int64(-1 << 60), "zzz", time.Now(), true} {
		k := Encode(v)
		if bytes.Compare(lo, k) >= 0 {
			t.Errorf("MinKey not below %v", bson.FormatValue(v))
		}
		if bytes.Compare(hi, k) <= 0 {
			t.Errorf("MaxKey not above %v", bson.FormatValue(v))
		}
	}
}
