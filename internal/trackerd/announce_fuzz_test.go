package trackerd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzAnnounceQuery feeds raw query strings to GET /announce. Whatever the
// client sends, the daemon must answer 200 with a JSON body or 400 — never
// panic, and never any other status. The corpus holds the query shapes the
// benchmark's announce mix sends, every event= variant, and malformed
// encodings.
func FuzzAnnounceQuery(f *testing.F) {
	for _, q := range []string{
		"swarm=s0&peer=p0",
		"swarm=s3&peer=p17",
		"swarm=s3&peer=p17&event=stopped",
		"swarm=s3&peer=p17&event=started",
		"swarm=s3&peer=p17&event=",
		"swarm=s3&peer=p17&event=completed",
		"swarm=s3&peer=p17&event=stopped&event=started",
		"swarm=s3",
		"peer=p17",
		"swarm=&peer=",
		"",
		"swarm=s%20x&peer=p%2F1",
		"swarm=%zz&peer=p1",
		"swarm=s1;peer=p1",
		"swarm=s1&peer=p1&peer=p2",
		"&&&=&swarm==&peer==",
	} {
		f.Add(q)
	}
	s, err := NewServer(Config{Seed: 1, CheckpointDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest(http.MethodGet, "/announce", nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("query %q: 200 body is not a JSON object: %v: %q", query, err, rec.Body.String())
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("query %q: status %d, want 200 or 400: %q", query, rec.Code, rec.Body.String())
		}
	})
}
