package oracle

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ftspanner/internal/gen"
)

// TestQueryContextStopsSearch: an unbounded miss across a 300×300 weighted
// lattice returns its context's error promptly — whether the deadline has
// already passed or the context is cancelled mid-search from another
// goroutine — caches nothing, and hands back a searcher that serves later
// misses exactly like a fresh oracle's.
func TestQueryContextStopsSearch(t *testing.T) {
	g, err := gen.Lattice(rand.New(rand.NewSource(54)), 300, 300, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 2, F: 1}
	o, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u, v := 0, g.N()-1
	noCache := QueryOptions{NoCache: true}
	start := time.Now()
	want, err := fresh.Query(u, v, noCache)
	full := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, opts := range []QueryOptions{noCache, {}} {
		if _, err := o.QueryContext(expired, u, v, opts); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expired deadline (NoCache=%v): err = %v, want DeadlineExceeded", opts.NoCache, err)
		}
	}

	// Cancel an eighth of the way into the search; if the search somehow
	// beats the cancel, retry with half the delay.
	for _, opts := range []QueryOptions{noCache, {}} {
		for delay := full / 8; ; delay /= 2 {
			if delay < time.Microsecond {
				t.Fatalf("no cancel landed inside a %v search", full)
			}
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(delay, cancel)
			start := time.Now()
			_, err := o.QueryContext(ctx, u, v, opts)
			took := time.Since(start)
			cancel()
			if err == nil {
				continue
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled mid-search (NoCache=%v): err = %v, want Canceled", opts.NoCache, err)
			}
			if took >= full {
				t.Fatalf("cancel after %v returned after %v; a whole search takes %v", delay, took, full)
			}
			t.Logf("cancel after %v returned after %v; a whole search takes %v", delay, took, full)
			break
		}
	}

	for i, opts := range []QueryOptions{noCache, {}, {}} {
		got, err := o.QueryContext(context.Background(), u, v, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Distance != want.Distance || !slices.Equal(got.Path, want.Path) {
			t.Fatalf("query %d after aborts: %v via %d vertices, want %v via %d", i, got.Distance, len(got.Path), want.Distance, len(want.Path))
		}
		if wantHit := i == 2; got.CacheHit != wantHit {
			t.Fatalf("query %d after aborts: CacheHit = %v, want %v", i, got.CacheHit, wantHit)
		}
	}

	// The aborted searchers went back to their pools: later misses, from
	// the same partition and from others, match the fresh oracle.
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 20; i++ {
		a, b := rng.Intn(g.N()), rng.Intn(g.N())
		if i%2 == 0 {
			a = u
		}
		opts := QueryOptions{FaultVertices: []int{rng.Intn(g.N())}, NoCache: true}
		got, err := o.Query(a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := fresh.Query(a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Distance != ref.Distance || !slices.Equal(got.Path, ref.Path) {
			t.Fatalf("miss %d (%d→%d, faults %v): %v, fresh oracle %v", i, a, b, opts.FaultVertices, got.Distance, ref.Distance)
		}
	}
}
