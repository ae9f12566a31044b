package object

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cadcam/internal/domain"
	"cadcam/internal/schema"
)

// walkProbe is the reference the equality fast path must reproduce: it
// walks every key bucket of every partition and keeps those inRange,
// returning the candidates visible at sequence point at and the estimate
// (postings in range, retained intervals included).
func walkProbe(ix *attrIndex, lo, hi domain.Value, at uint64) ([]domain.Surrogate, int, bool) {
	loK, hiK, ok := bounds(lo, hi)
	if !ok {
		return nil, -1, false
	}
	var out []domain.Surrogate
	est := 0
	for i := range ix.parts {
		p := &ix.parts[i]
		p.mu.Lock()
		for k, m := range p.buckets {
			if !k.inRange(loK, hiK) {
				continue
			}
			est += len(m)
			for sur, n := range m {
				for ; n != nil; n = n.prev {
					if n.added <= at && (n.removed == 0 || n.removed > at) {
						out = append(out, sur)
						break
					}
					if n.added <= at {
						break
					}
				}
			}
		}
		p.mu.Unlock()
	}
	slices.Sort(out)
	return out, est, true
}

// scalarCatalog declares one attribute per indexable scalar kind.
func scalarCatalog(t testing.TB) *schema.Catalog {
	t.Helper()
	c := schema.NewCatalog()
	if err := c.AddObjectType(&schema.ObjectType{
		Name: "Part",
		Attributes: []schema.Attribute{
			{Name: "Num", Domain: domain.Integer()},
			{Name: "Real", Domain: domain.Real()},
			{Name: "Text", Domain: domain.String_()},
			{Name: "Tag", Domain: domain.Enum("Tag", "x", "y")},
			{Name: "Flag", Domain: domain.Boolean()},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestIndexPointProbeMatchesWalk checks that probes and estimates whose
// bounds normalize to one key — answered by a bucket lookup per
// partition — return exactly what the walk over every key returns, for
// every kind of key, on the live store and at pins holding closed
// intervals, before and after the index is dropped.
func TestIndexPointProbeMatchesWalk(t *testing.T) {
	s, err := NewStore(scalarCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DefineClass("parts", "Part"); err != nil {
		t.Fatal(err)
	}
	const big = int64(1) << 53 // big and big+1 share one float64 key
	negZero := domain.Rl(math.Copysign(0, -1))
	rows := map[string][]domain.Value{
		"Num":  {domain.Int(3), domain.Int(0), domain.Int(-5), domain.Int(big), domain.Int(big + 1), domain.Int(4)},
		"Real": {domain.Rl(3.0), negZero, domain.Rl(0), domain.Rl(0.5), domain.Rl(3.25), domain.Rl(-5)},
		"Text": {domain.Str("x"), domain.Str("y"), domain.Str(""), domain.Str("x")},
		"Tag":  {domain.Sym("x"), domain.Sym("y"), domain.Sym("x")},
		"Flag": {domain.Bool(true), domain.Bool(false), domain.Bool(true)},
	}
	attrs := []string{"Num", "Real", "Text", "Tag", "Flag"}
	for _, a := range attrs {
		if err := s.CreateIndex("parts_"+a, "parts", a); err != nil {
			t.Fatal(err)
		}
	}
	// Enough objects to land in every partition.
	parts := make([]domain.Surrogate, 48)
	for i := range parts {
		parts[i] = mustSur(t)(s.NewObject("Part", "parts"))
	}
	// assign writes row (i+shift) of every attribute's values to part i.
	assign := func(shift int) {
		for i, p := range parts {
			for _, a := range attrs {
				vs := rows[a]
				set(t, s, p, a, vs[(i+shift)%len(vs)])
			}
		}
	}
	vals := []domain.Value{
		nil, domain.NullValue, domain.Rl(math.NaN()),
		domain.Int(3), domain.Rl(3.0), domain.Int(0), domain.Rl(0), negZero,
		domain.Int(big), domain.Int(big + 1), domain.Rl(float64(big)), domain.Int(-5), domain.Int(7),
		domain.Str("x"), domain.Sym("x"), domain.Str("y"), domain.Sym("y"), domain.Str(""),
		domain.Bool(true), domain.Bool(false),
	}
	check := func(label string, rp *readPoint) {
		t.Helper()
		for _, a := range attrs {
			ix := rp.index("parts", a)
			for _, lo := range vals {
				for _, hi := range vals {
					got, ok := rp.IndexProbe("parts", a, lo, hi)
					est := rp.IndexEstimate("parts", a, lo, hi)
					if ix == nil {
						if ok || est != -1 {
							t.Fatalf("%s: %s [%v, %v]: probe ok=%v est=%d without an index", label, a, lo, hi, ok, est)
						}
						continue
					}
					want, wantEst, wantOK := walkProbe(ix, lo, hi, rp.seq)
					if ok != wantOK || !slices.Equal(got, want) || est != wantEst {
						t.Fatalf("%s: %s [%v, %v]: probe %v ok=%v est=%d, walk %v ok=%v est=%d",
							label, a, lo, hi, got, ok, est, want, wantOK, wantEst)
					}
				}
			}
		}
	}
	// count is the live point probe's candidate count for attr = v.
	count := func(a string, v domain.Value) int {
		t.Helper()
		got, ok := s.IndexProbe("parts", a, v, v)
		if !ok {
			t.Fatalf("%s = %v: no usable index", a, v)
		}
		return len(got)
	}

	assign(0)
	check("live", &s.live)
	// The cases the point lookup must get right, beyond agreeing with
	// the walk: cross-numeric equality, signed zero, collapsed huge Ints,
	// Str and Sym of one text as different keys, and kinds that never
	// compare.
	for _, c := range []struct {
		attr string
		v    domain.Value
		want int
	}{
		{"Num", domain.Rl(3.0), 8},
		{"Real", domain.Int(3), 8},
		{"Real", domain.Int(0), 16},
		{"Real", negZero, 16},
		{"Num", domain.Int(big + 1), 16},
		{"Text", domain.Str("x"), 24},
		{"Text", domain.Sym("x"), 0},
		{"Tag", domain.Sym("x"), 32},
		{"Tag", domain.Str("x"), 0},
		{"Flag", domain.Bool(false), 16},
		{"Flag", domain.Int(0), 0},
	} {
		if got := count(c.attr, c.v); got != c.want {
			t.Errorf("%s = %v: %d candidates, want %d", c.attr, c.v, got, c.want)
		}
	}
	// NaN is never a key, so a NaN bound is rejected; a null bound is an
	// open one, so null = null is no point probe but a full walk.
	if _, ok := s.IndexProbe("parts", "Real", domain.Rl(math.NaN()), domain.Rl(math.NaN())); ok {
		t.Error("NaN bound accepted")
	}
	if est := s.IndexEstimate("parts", "Real", domain.Rl(math.NaN()), domain.Rl(math.NaN())); est != -1 {
		t.Errorf("estimate with NaN bound = %d, want -1", est)
	}
	if got := count("Real", domain.NullValue); got != len(parts) {
		t.Errorf("null bounds: %d candidates, want all %d", got, len(parts))
	}

	// Pins over successive states: each later write closes intervals the
	// earlier pins still read.
	var pins []*Snapshot
	for shift := 1; shift <= 3; shift++ {
		pins = append(pins, s.Snapshot())
		assign(shift)
	}
	set(t, s, parts[0], "Num", domain.NullValue)
	if err := s.Delete(parts[1]); err != nil {
		t.Fatal(err)
	}
	pins = append(pins, s.Snapshot())
	for _, st := range s.IndexStats() {
		if st.Retained == 0 {
			t.Fatalf("index %s retains no closed interval for the pins", st.Name)
		}
	}
	check("live with pins", &s.live)
	for i, sn := range pins {
		check(fmt.Sprintf("pin %d", i), &sn.readPoint)
	}

	// A dropped index is gone for live reads; pins taken before the drop
	// still probe it.
	if err := s.DropIndex("parts_Num"); err != nil {
		t.Fatal(err)
	}
	check("live after drop", &s.live)
	for i, sn := range pins {
		check(fmt.Sprintf("pin %d after drop", i), &sn.readPoint)
	}
	for _, sn := range pins[:2] {
		sn.Release()
	}
	s.SweepVersions()
	for i, sn := range pins[2:] {
		check(fmt.Sprintf("pin %d after sweep", i+2), &sn.readPoint)
	}
	for _, sn := range pins[2:] {
		sn.Release()
	}
	s.SweepVersions()
	check("live after sweep", &s.live)
}

var probeSink []domain.Surrogate

// BenchmarkIndexProbe measures an equality probe (one bucket lookup per
// partition) against a five-key range probe (a walk over every key) on
// indexes with one member per key: the point cost stays flat as the key
// count grows, the range cost grows with it.
func BenchmarkIndexProbe(b *testing.B) {
	for _, keys := range []int{200, 100_000} {
		s, err := NewStore(scalarCatalog(b))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.DefineClass("parts", "Part"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < keys; i++ {
			sur, err := s.NewObject("Part", "parts")
			if err != nil {
				b.Fatal(err)
			}
			if err := s.SetAttr(sur, "Num", domain.Int(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.CreateIndex("parts_Num", "parts", "Num"); err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name  string
			width int64
		}{{"point", 0}, {"range", 4}} {
			b.Run(fmt.Sprintf("%s/keys=%d", c.name, keys), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k := int64(i % (keys - int(c.width)))
					probeSink, _ = s.IndexProbe("parts", "Num", domain.Int(k), domain.Int(k+c.width))
				}
			})
		}
	}
}
