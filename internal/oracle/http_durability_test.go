package oracle

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ftspanner/internal/faultinject"
	"ftspanner/internal/graph"
)

func getCode(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestReadyzGating(t *testing.T) {
	g := mustGNP(t, 81, 40, 5)
	o, err := New(g, Config{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ready atomic.Bool
	srv := httptest.NewServer(NewHTTPHandlerOpts(o, HandlerOptions{Ready: ready.Load}))
	defer srv.Close()

	var body map[string]any
	if code := getCode(t, srv.URL+"/readyz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before ready: %d", code)
	}
	if body["ready"] != false {
		t.Fatalf("body = %v", body)
	}
	// Liveness stays green the whole time.
	if code := getCode(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	ready.Store(true)
	if code := getCode(t, srv.URL+"/readyz", &body); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("/readyz after ready: %d %v", code, body)
	}
	// Degraded flips readiness off even while Ready() is true.
	o.degraded.Store(true)
	if code := getCode(t, srv.URL+"/readyz", &body); code != http.StatusServiceUnavailable || body["degraded"] != true {
		t.Fatalf("/readyz degraded: %d %v", code, body)
	}
	var health map[string]any
	if code := getCode(t, srv.URL+"/healthz", &health); code != http.StatusOK || health["degraded"] != true {
		t.Fatalf("/healthz degraded: %d %v", code, health)
	}
}

func TestBatchOverloadMapsTo429(t *testing.T) {
	g := mustGNP(t, 82, 40, 5)
	o, err := New(g, Config{K: 2, F: 1, ApplyQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHTTPHandler(o))
	defer srv.Close()

	// Fill the only slot by holding the writer mutex hostage and parking
	// one apply on it.
	o.wmu.Lock()
	done := make(chan error, 1)
	go func() { done <- o.Apply(churnBatches(t, o.m.Graph(), 1, 1, 2)[0]) }()
	for len(o.applySlots) != 1 {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(srv.URL+"/batch", "application/json", strings.NewReader(`{"insert":[{"u":0,"v":39}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	o.wmu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBatchDegradedMapsTo503(t *testing.T) {
	dir := t.TempDir()
	g := mustGNP(t, 83, 40, 5)
	o, err := New(g, Config{K: 2, F: 1, WAL: openWAL(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	srv := httptest.NewServer(NewHTTPHandler(o))
	defer srv.Close()

	// Two guaranteed-valid inserts (absent pairs), so the first reaches the
	// WAL append and trips the injected IO error there.
	var pairs [][2]int
	for u := 0; u < 40 && len(pairs) < 2; u++ {
		for v := u + 1; v < 40 && len(pairs) < 2; v++ {
			if !o.m.Graph().HasEdge(u, v) {
				pairs = append(pairs, [2]int{u, v})
			}
		}
	}
	body := func(p [2]int) string {
		return `{"insert":[{"u":` + strconv.Itoa(p[0]) + `,"v":` + strconv.Itoa(p[1]) + `}]}`
	}
	faultinject.Fail(faultinject.AppendError)
	resp1, err := http.Post(srv.URL+"/batch", "application/json", strings.NewReader(body(pairs[0])))
	faultinject.Reset()
	if err != nil {
		t.Fatal(err)
	}
	resp1.Body.Close()
	if !o.Degraded() {
		t.Fatal("append IO error did not degrade the oracle")
	}
	// The failing batch itself surfaces as a 400-class error; what matters
	// is every batch AFTER it sees 503 + degraded.
	resp2, err := http.Post(srv.URL+"/batch", "application/json", strings.NewReader(body(pairs[1])))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-degrade batch status %d, want 503", resp2.StatusCode)
	}
	// Reads still serve.
	if code := getCode(t, srv.URL+"/query?u=0&v=5", nil); code != http.StatusOK {
		t.Fatalf("degraded query status %d", code)
	}
}

func TestQueryDeadlineMapsTo503(t *testing.T) {
	g := mustGNP(t, 84, 40, 5)
	o, err := New(g, Config{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHTTPHandlerOpts(o, HandlerOptions{QueryTimeout: time.Nanosecond}))
	defer srv.Close()
	var body errorResponse
	if code := getCode(t, srv.URL+"/query?u=0&v=5&no_cache=1", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	if !strings.Contains(body.Error, "deadline") {
		t.Fatalf("error %q", body.Error)
	}
	// A sane deadline serves normally.
	h := NewHTTPHandlerOpts(o, HandlerOptions{QueryTimeout: 10 * time.Second})
	srv2 := httptest.NewServer(h)
	defer srv2.Close()
	if code := getCode(t, srv2.URL+"/query?u=0&v=5", nil); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	// A client that has gone away stops the search too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?u=0&v=6&no_cache=1", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "request canceled") {
		t.Fatalf("canceled request: %d %s, want 503 request canceled", rec.Code, rec.Body.String())
	}
}

// TestSnapshotEndpoint round-trips the debug dump: the served graph text
// must parse back into exactly the oracle's maintained state.
func TestSnapshotEndpoint(t *testing.T) {
	g := mustGNP(t, 85, 40, 5)
	o, err := New(g, Config{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHTTPHandler(o))
	defer srv.Close()
	var snap SnapshotResponse
	if code := getCode(t, srv.URL+"/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if snap.Epoch != o.Epoch() || snap.N != 40 {
		t.Fatalf("snapshot header: %+v", snap)
	}
	hg, err := graph.Read(strings.NewReader(snap.Graph))
	if err != nil {
		t.Fatal(err)
	}
	hh, err := graph.Read(strings.NewReader(snap.Spanner))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameEdgeTable(hg, graph.Compact(o.m.Graph())); err != nil {
		t.Fatalf("graph dump: %v", err)
	}
	if err := sameEdgeTable(hh, graph.Compact(o.m.Spanner())); err != nil {
		t.Fatalf("spanner dump: %v", err)
	}
}
