package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the fewest samples a tail percentile must have beyond it
// before it is reported; a p99 over fewer than 1000 samples would be read
// off a handful of points and swing from run to run.
const minTail = 10

// dist is a sample of one quantity, sorted on construction.
type dist struct {
	name string
	unit string
	xs   []float64
}

func newDist(name, unit string, xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{name: name, unit: unit, xs: s}
}

// pct returns the q-quantile (0 < q < 1) by linear interpolation between
// closest ranks. It refuses a tail quantile with fewer than minTail samples
// beyond it.
func (d dist) pct(q float64) (float64, error) {
	n := len(d.xs)
	if n == 0 {
		return 0, fmt.Errorf("%s: no samples", d.name)
	}
	if q > 0.5 {
		if beyond := float64(n) * (1 - q); beyond < minTail {
			return 0, fmt.Errorf("%s: p%g needs %d samples beyond it, have %.1f of n=%d",
				d.name, 100*q, minTail, beyond, n)
		}
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return d.xs[lo] + (d.xs[hi]-d.xs[lo])*(pos-float64(lo)), nil
}

// max returns the largest sample, or 0 for an empty sample.
func (d dist) max() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	return d.xs[len(d.xs)-1]
}

// line renders one quantile with its sample count, the form every printed
// timing takes.
func (d dist) line(label string, q float64) (string, float64, error) {
	v, err := d.pct(q)
	if err != nil {
		return "", 0, err
	}
	return fmt.Sprintf("%-28s %12.4f %-6s (p%g, n=%d)", label, v, d.unit, 100*q, len(d.xs)), v, nil
}

// median is the 0.5-quantile of xs, or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := newDist("", "", xs).pct(0.5)
	return v
}
