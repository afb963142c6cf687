package main

import (
	"math"
	"sort"
)

// tailBeyond is how many ops must lie beyond the tail percentile, so the
// tail is never drawn from a handful of samples.
const tailBeyond = 10

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailPercentile returns the highest whole percentile (at most 99) that
// leaves at least tailBeyond of n ops strictly above its nearest-rank
// value. Below 2×tailBeyond ops no tail above the median exists, and the
// median is returned.
func tailPercentile(n int) int {
	p := 99
	for p > 50 && n-nearestRank(p, n) < tailBeyond {
		p--
	}
	return p
}

// nearestRank is the 1-based rank of the p-th percentile of n values.
func nearestRank(p, n int) int {
	return max(1, int(math.Ceil(float64(p)*float64(n)/100)))
}

// percentile returns the p-th nearest-rank percentile of xs.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// Failure causes counted toward failed_frac. None is retried or dropped.
const (
	causeError    = "error"    // the op returned an error or its job failed
	causeRejected = "rejected" // the daemon refused it (429 or 503)
	causeDigest   = "digest"   // it finished with a digest unlike the library path's
)

// tally counts attempted ops and their failures by cause.
type tally struct {
	attempted int
	causes    map[string]int
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(cause string) {
	t.attempted++
	if t.causes == nil {
		t.causes = make(map[string]int)
	}
	t.causes[cause]++
}

func (t *tally) failed() int {
	n := 0
	for _, c := range t.causes {
		n += c
	}
	return n
}

// failedFrac is the share of attempted ops that failed, whatever the cause.
func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}
