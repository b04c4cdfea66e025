package experiments

import "testing"

// The signature keys the advisor's answers and names the requests in a
// drain checkpoint, so its bytes must not move: these are the values
// of FNV-64a over the "%v|" renderings of the normalized fields.
func TestSignatureGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  AdviseRequest
		want string
	}{
		{"empty", AdviseRequest{}, "6b9da58651d4f5eb"},
		{"big mix", AdviseRequest{OS: "ultrix", Workloads: []string{"mpeg_play", "mab", "jpeg_play"},
			Refs: 200000, BudgetRBE: 125000, MaxCacheAssoc: 2, Top: 5, Space: "big"}, "08df9f648ce4c3b0"},
	} {
		if err := tc.req.Normalize(0); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := tc.req.Signature(); got != tc.want {
			t.Errorf("%s: signature %s, want %s (%+v)", tc.name, got, tc.want, tc.req)
		}
	}
}

// Each value is terminated before the next, so workload names that
// concatenate to the same string still sign apart.
func TestSignatureSeparatesValues(t *testing.T) {
	a := AdviseRequest{Workloads: []string{"ab", "c"}}
	b := AdviseRequest{Workloads: []string{"a", "bc"}}
	if a.Signature() == b.Signature() {
		t.Fatalf("workloads %q and %q collide at %s", a.Workloads, b.Workloads, a.Signature())
	}
}

// A change to any one field, or swapping the values of two adjacent
// fields, moves the signature; equal requests sign equal.
func TestSignatureOrderAndValueSensitivity(t *testing.T) {
	base := AdviseRequest{OS: "Mach", Workloads: []string{"mab"}, Refs: 4000, BudgetRBE: 250000, MaxCacheAssoc: 2, Top: 4, Space: "table5"}
	for name, edit := range map[string]func(*AdviseRequest){
		"os":              func(r *AdviseRequest) { r.OS = "Ultrix" },
		"workloads":       func(r *AdviseRequest) { r.Workloads = []string{"mab", "mpeg_play"} },
		"refs":            func(r *AdviseRequest) { r.Refs = 4001 },
		"budget":          func(r *AdviseRequest) { r.BudgetRBE = 250000.5 },
		"max_cache_assoc": func(r *AdviseRequest) { r.MaxCacheAssoc = 4 },
		"top":             func(r *AdviseRequest) { r.Top = 2 },
		"space":           func(r *AdviseRequest) { r.Space = "big" },
		"assoc<->top":     func(r *AdviseRequest) { r.MaxCacheAssoc, r.Top = r.Top, r.MaxCacheAssoc },
	} {
		other := base
		edit(&other)
		if other.Signature() == base.Signature() {
			t.Errorf("%s: %+v and %+v collide at %s", name, base, other, base.Signature())
		}
	}
	same := base
	same.Workloads = []string{"mab"}
	if same.Signature() != base.Signature() {
		t.Fatal("equal requests must sign equal")
	}
}
