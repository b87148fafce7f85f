// Package obs is the repo's dependency-free observability spine: atomic
// counters and gauges, a lock-free log-bucketed latency histogram, a
// fixed-size trace ring, and a registry that renders everything in the
// Prometheus text exposition format.
//
// The package exists so the hot paths can be measured without being
// perturbed: every instrument is safe for concurrent use, Record/Observe
// and counter updates are wait-free (a handful of atomic adds, no locks),
// and none of them allocate after construction.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
// The zero value is ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic float64 that can go up and down.
// The zero value is ready to use and reads as 0.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }
