package oracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/verify"
)

func newTestServer(t *testing.T) (*httptest.Server, *Oracle) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	g, err := gen.GNP(rng, 48, 8.0/47.0)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(g, Config{K: 2, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHTTPHandler(o))
	t.Cleanup(srv.Close)
	return srv, o
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func postJSON(t *testing.T, url string, body any, wantStatus int, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// The full endpoint lifecycle: health, query (GET and POST, cached repeat),
// churn via /batch (epoch bump visible), stats accounting.
func TestHTTPEndpoints(t *testing.T) {
	srv, o := newTestServer(t)

	var health struct {
		OK    bool   `json:"ok"`
		Epoch uint64 `json:"epoch"`
	}
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &health)
	if !health.OK || health.Epoch != 1 {
		t.Fatalf("healthz: %+v", health)
	}

	var q1, q2, q3 QueryResponse
	postJSON(t, srv.URL+"/query", QueryRequest{U: 0, V: 40, FaultVertices: []int{7}}, http.StatusOK, &q1)
	if q1.CacheHit {
		t.Fatal("first query hit the cache")
	}
	getJSON(t, srv.URL+"/query?u=0&v=40&faults=7", http.StatusOK, &q2)
	if !q2.CacheHit || q2.Distance != q1.Distance || q2.Epoch != q1.Epoch {
		t.Fatalf("GET repeat diverged: %+v vs %+v", q2, q1)
	}
	if q1.Reachable {
		_, snapH, _ := o.Snapshot()
		if err := verify.CheckServedAnswer(snapH, verify.ServedAnswer{
			U: 0, V: 40, Dist: q1.Distance, Path: q1.Path, FaultVertices: []int{7},
		}); err != nil {
			t.Fatalf("served HTTP answer invalid: %v", err)
		}
	}

	// Churn through /batch, touching queried vertex 0 so its cache shard is
	// invalidated: the epoch advances and that pair's entry is cold again.
	g, _, _ := o.Snapshot()
	var e graph.Edge
	found := false
	for _, cand := range g.Edges() {
		if cand.U == 0 || cand.V == 0 {
			e, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("vertex 0 has no incident edge to churn")
	}
	var br BatchResponse
	postJSON(t, srv.URL+"/batch", BatchRequest{
		Delete: []BatchUpdate{{U: e.U, V: e.V}},
		Insert: []BatchUpdate{{U: e.U, V: e.V}}, // delete + re-insert is one atomic batch
	}, http.StatusOK, &br)
	if br.Epoch != q1.Epoch+1 || br.Inserted != 1 || br.Deleted != 1 {
		t.Fatalf("batch response %+v", br)
	}
	getJSON(t, srv.URL+"/query?u=0&v=40&faults=7", http.StatusOK, &q3)
	if q3.CacheHit || q3.Epoch != br.Epoch {
		t.Fatalf("post-churn query %+v: want cold cache at epoch %d", q3, br.Epoch)
	}

	var st Stats
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st.Queries != 3 || st.CacheHits != 1 || st.Batches != 1 || st.Epoch != br.Epoch {
		t.Fatalf("stats %+v", st)
	}
	if st.Mode != "vertex" || st.K != 2 || st.F != 2 {
		t.Fatalf("stats config echo %+v", st)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name   string
		method string
		url    string
		body   any
		status int
	}{
		{"missing u", http.MethodGet, "/query?v=3", nil, http.StatusBadRequest},
		{"bad fault token", http.MethodGet, "/query?u=0&v=3&faults=x", nil, http.StatusBadRequest},
		{"pair out of range", http.MethodGet, "/query?u=0&v=99", nil, http.StatusBadRequest},
		{"too many faults", http.MethodGet, "/query?u=0&v=3&faults=1,2,4", nil, http.StatusBadRequest},
		{"bad json", http.MethodPost, "/query", "not json", 0 /* set below */},
		{"delete missing edge", http.MethodPost, "/batch", BatchRequest{Delete: []BatchUpdate{{U: 0, V: 0}}}, http.StatusBadRequest},
		{"batch wrong method", http.MethodGet, "/batch", nil, http.StatusMethodNotAllowed},
		{"stats wrong method", http.MethodPost, "/stats", map[string]int{}, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errResp errorResponse
			switch tc.name {
			case "bad json":
				resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader([]byte("{")))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("status %d", resp.StatusCode)
				}
				return
			default:
				if tc.method == http.MethodGet {
					getJSON(t, srv.URL+tc.url, tc.status, &errResp)
				} else {
					postJSON(t, srv.URL+tc.url, tc.body, tc.status, &errResp)
				}
			}
			if errResp.Error == "" {
				t.Fatal("error response carried no message")
			}
		})
	}
}

// A POST body over maxBodyBytes is refused with 413 on both body-carrying
// endpoints, and the next normal query is served. The handler is driven
// directly: a real server lingers 500ms before closing such a connection.
func TestHTTPOversizedBodyIs413(t *testing.T) {
	o, err := New(gen.Complete(4), Config{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHTTPHandler(o)
	serve := func(method, target, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec.Code
	}
	padding := strings.Repeat(" ", maxBodyBytes)
	for path, body := range map[string]string{
		"/query": `{"u":0,"v":3}`,
		"/batch": `{"delete":[{"u":0,"v":3}]}`,
	} {
		if code := serve(http.MethodPost, path, padding+body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(padding)+len(body), code)
		}
		if code := serve(http.MethodPost, path, body); code != http.StatusOK {
			t.Errorf("POST %s with the same body unpadded: status %d, want 200", path, code)
		}
	}
	if code := serve(http.MethodGet, "/query?u=0&v=3", ""); code != http.StatusOK {
		t.Errorf("GET /query after the 413s: status %d, want 200", code)
	}
}

// An unreachable pair is JSON-safe: reachable=false, distance=-1, no path.
func TestHTTPUnreachable(t *testing.T) {
	g := gen.Complete(4)
	o, err := New(g, Config{K: 2, F: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHTTPHandler(o))
	defer srv.Close()
	var q QueryResponse
	getJSON(t, fmt.Sprintf("%s/query?u=0&v=1&faults=2,3", srv.URL), http.StatusOK, &q)
	// K4's 3-FT spanner is K4 itself; failing 2 of 4 vertices leaves the
	// direct edge 0-1, so the pair stays reachable — fail the other side.
	if !q.Reachable {
		t.Fatalf("0-1 should survive faults {2,3}: %+v", q)
	}
	var q2 QueryResponse
	getJSON(t, fmt.Sprintf("%s/query?u=0&v=1&faults=1", srv.URL), http.StatusOK, &q2)
	if q2.Reachable || q2.Distance != -1 || q2.Path != nil {
		t.Fatalf("failed-endpoint query over HTTP: %+v", q2)
	}
}
