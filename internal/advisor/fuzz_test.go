package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"onchip/internal/experiments"
)

// FuzzAdviseRequest holds the request boundary to its contract for
// arbitrary POST bodies: a rejected request is never admitted, and
// an accepted one is normalized to a fixed point -- normalizing it
// again, or after the JSON round trip a drain checkpoint makes, signs
// it the same -- and answers under that signature.
func FuzzAdviseRequest(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`{"workloads":["mab","MAB","mab"],"refs":2000}`,
		`{"os":"ULTRIX","top":3,"space":" Big ","max_cache_assoc":2}`,
		`{"budget_rbe":125000.5,"refs":1000}`,
		`{"refs":999}`,
		`{"refs":2000000}`,
		`{"budget_rbe":-1}`,
		`{"max_cache_assoc":3}`,
		`{"top":1001}`,
		`{"workloads":["nope"]}`,
		`{"space":"huge"}`,
		`{"bogus":1}`,
		`{"refs":"2000"}`,
		`[`,
	} {
		f.Add([]byte(seed))
	}
	var runs atomic.Int64
	srv := New(Config{
		Workers: 1,
		MaxRefs: 1_000_000,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			runs.Add(1)
			return fakeResponse(req), nil
		},
	})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := runs.Load()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/advise", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			if n := runs.Load() - before; n != 0 {
				t.Fatalf("rejected body %q ran %d job(s)", body, n)
			}
			return
		case http.StatusOK:
		default:
			t.Fatalf("body %q: status %d %s, want 200 or 400", body, rec.Code, rec.Body.Bytes())
		}

		var resp experiments.AdviseResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: response does not parse: %v", body, err)
		}
		req := resp.Request
		sig := rec.Header().Get("X-Advisor-Signature")
		if req.Signature() != sig || resp.Signature != sig {
			t.Fatalf("body %q: answered as %s, header %s, request signs %s", body, resp.Signature, sig, req.Signature())
		}
		again := req
		again.Workloads = append([]string(nil), req.Workloads...)
		if err := again.Normalize(srv.cfg.MaxRefs); err != nil {
			t.Fatalf("body %q: normalized request %+v is refused on a second pass: %v", body, req, err)
		}
		if again.Signature() != sig {
			t.Fatalf("body %q: a second Normalize moved the signature: %+v -> %+v", body, req, again)
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var replay experiments.AdviseRequest
		if err := json.Unmarshal(b, &replay); err != nil {
			t.Fatal(err)
		}
		if err := replay.Normalize(srv.cfg.MaxRefs); err != nil || replay.Signature() != sig {
			t.Fatalf("body %q: the JSON round trip of %s signs %s (err %v), want %s", body, b, replay.Signature(), err, sig)
		}
	})
}
