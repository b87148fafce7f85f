package graph

import (
	"math"
	"math/bits"
)

// keyedID is one element of the weight sort: the edge's sort key next to
// its ID, so a radix pass moves both with one store.
type keyedID struct {
	key uint64
	id  int
}

// sortByWeight stably reorders ids by nondecreasing edges[id].W. Given the
// ascending live-ID list, stability leaves equal weights in ID order.
//
// It is an LSD radix sort on the IEEE-754 bits of the weight. Every
// construction path admits only finite w >= 0 (CheckWeight), and such bit
// patterns order exactly as the numbers do, except -0.0: its sign bit is set
// but it equals +0, so it gets key 0. Digits cover only the bits that differ
// between some two keys; a digit of shared bits would be a pass with a single
// bucket, so it is skipped (equal weights take no pass at all). Uniform
// weights in [1, 2), for instance, vary only in the 52 mantissa bits.
//
// The digit width follows from the input size: at most bits.Len(n)-3 bits,
// capped at 16, so a histogram has at most about n/4 buckets and a small
// input never clears 64K counters per pass. The varying span is cut into the
// fewest passes of at most that width, evened out (52 bits at n = 325 600
// are 4 passes of 13 bits). On a 2-vCPU x86 box this rule was within noise
// of the best fixed width (8, 11, 13 or 16) at every n from 16 to 325 600.
func sortByWeight(ids []int, edges []Edge) {
	n := len(ids)
	if n < 2 {
		return
	}
	src := make([]keyedID, n)
	var or, and uint64 = 0, ^uint64(0)
	for i, id := range ids {
		k := math.Float64bits(edges[id].W)
		if k == 1<<63 { // -0.0
			k = 0
		}
		src[i] = keyedID{key: k, id: id}
		or |= k
		and &= k
	}
	varying := or ^ and
	if varying == 0 {
		return
	}
	lo := uint(bits.TrailingZeros64(varying))
	span := uint(64-bits.LeadingZeros64(varying)) - lo
	maxWidth := uint(min(max(bits.Len(uint(n))-3, 1), 16))
	passes := (span + maxWidth - 1) / maxWidth
	width := (span + passes - 1) / passes
	mask := uint64(1)<<width - 1
	dst := make([]keyedID, n)
	count := make([]int, 1<<width)
	for shift := lo; shift < lo+span; shift += width {
		if (varying>>shift)&mask == 0 {
			continue
		}
		clear(count)
		for _, e := range src {
			count[(e.key>>shift)&mask]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, e := range src {
			d := (e.key >> shift) & mask
			dst[count[d]] = e
			count[d]++
		}
		src, dst = dst, src
	}
	for i := range ids {
		ids[i] = src[i].id
	}
}
