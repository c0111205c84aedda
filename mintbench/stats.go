package main

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: p50 needs 20 samples, p90 needs 100.
const minTail = 10

// errSmallSample refuses a percentile the sample cannot support.
var errSmallSample = errors.New("sample too small for this percentile")

// percentile returns the q-th quantile (0 < q < 1) of xs by the
// nearest-rank rule, or errSmallSample when fewer than minTail samples
// lie beyond it. xs is not modified.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	n := len(xs)
	if float64(n)*(1-q) < minTail-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples: %w", q*100, n, errSmallSample)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], nil
}

// median is percentile(xs, 0.5) for small diagnostic samples, where the
// refusal rule does not apply (per-layer counts and set-up repeats).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects reported values and the first error met while
// computing them (a refused percentile or a malformed name), so callers
// can set many values and check once.
type metrics struct {
	m   map[string]metric
	err error
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		ms.fail(fmt.Errorf("metric name %q does not match %s", name, metricName))
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		ms.fail(fmt.Errorf("metric %s is %v", name, v))
		return
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

// pct sets name to the q-th percentile of xs in milliseconds.
func (ms *metrics) pct(name string, xs []float64, q float64) {
	v, err := percentile(xs, q)
	if err != nil {
		ms.fail(fmt.Errorf("%s: %w", name, err))
		return
	}
	ms.set(name, "ms", v)
}

func (ms *metrics) fail(err error) {
	if ms.err == nil {
		ms.err = err
	}
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
