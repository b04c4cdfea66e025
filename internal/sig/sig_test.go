package sig

import (
	"fmt"
	"hash/fnv"
	"testing"
)

func TestMatchesRawFNV(t *testing.T) {
	// The signature must be exactly FNV-64a over "%v|" renderings:
	// advisor drain checkpoints persist request signatures, which must
	// keep matching the requests they name.
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%v|%v|", "budget", 250000.0, 42)
	want := fmt.Sprintf("%016x", h.Sum64())

	s := New()
	s.Put("budget", 250000.0, 42)
	if got := s.String(); got != want {
		t.Fatalf("signature %s, want raw-FNV %s", got, want)
	}
	if got := Of("budget", 250000.0, 42); got != want {
		t.Fatalf("Of = %s, want %s", got, want)
	}
}

func TestSeparatorPreventsConcatenationCollisions(t *testing.T) {
	if Of("ab", "c") == Of("a", "bc") {
		t.Fatal(`Of("ab","c") collides with Of("a","bc")`)
	}
}

func TestPutfFormats(t *testing.T) {
	type spec struct{ Name string }
	a, b := New(), New()
	a.Putf("%+v", spec{Name: "x"})
	b.Put(spec{Name: "x"}) // %v of a struct omits field names
	if a.String() == b.String() {
		t.Fatal("plus-v and v renderings should differ for a named-field struct")
	}
	if a.Sum64() == 0 {
		t.Fatal("Sum64 returned zero for non-empty input")
	}
}

func TestOrderAndValueSensitivity(t *testing.T) {
	base := Of("Mach", 4000, 2)
	for _, other := range []string{
		Of("Mach", 4000, 4),
		Of("Ultrix", 4000, 2),
		Of(4000, "Mach", 2),
	} {
		if other == base {
			t.Fatalf("distinct inputs collided at %s", base)
		}
	}
	if Of("Mach", 4000, 2) != base {
		t.Fatal("identical inputs must produce identical signatures")
	}
}
