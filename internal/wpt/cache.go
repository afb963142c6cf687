package wpt

import (
	"math"
	"math/cmplx"
	"slices"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// fieldCache memoizes the superposed field at probed positions for one
// array configuration. Campaign sessions and experiment sweeps probe the
// same handful of node positions hundreds of times per steering, so the
// cache turns the per-emitter Hypot/Sqrt/Sincos work into a map hit.
//
// Correctness rests on two validations performed before any hit:
//
//   - owner: the cache belongs to exactly one *Array. Arrays are copied
//     by value in places (the mobile charger steers a scratch copy), and
//     a copy shares the cache pointer — the owner check rejects it, so a
//     copy can never read entries computed for (or poison the cache of)
//     the original. Holding the owner pointer also keeps the original
//     array reachable, so a dangling address can never be reused by a
//     different Array while the cache is alive.
//   - signature: a snapshot of the model, carrier, and emitter
//     configuration taken when the cache was built. Any mutation — the
//     steering solvers, Translate/MoveTo, or a caller writing an emitter
//     field directly — changes the signature and drops every entry. The
//     owner's cache is then re-snapshotted in place, so a charger that
//     moves and steers between probes reuses its buffers rather than
//     allocating a cache per configuration.
//
// The entry map materializes lazily on the second probe of an unchanged
// configuration: one-shot probes of a freshly steered array (the mobile
// charger's delivery estimate) pay only the O(emitters) snapshot and
// never allocate a map.
type fieldCache struct {
	owner    *Array
	model    ChargeModel
	carrier  Carrier
	emitters []Emitter

	// k is the carrier wavenumber 2π/λ and sqrtAlpha the model's √α —
	// the per-call invariants of the field sum, precomputed once. Both
	// reproduce the original expression trees exactly (hoisting a pure
	// subexpression does not change IEEE-754 results), so cached and
	// uncached fields are bit-identical.
	k         float64
	sqrtAlpha float64

	entries map[geom.Point]complex128

	// jitterPt/jitterTerms memoize the per-emitter (distance, amplitude)
	// terms of the last jittered probe position, while jitterOK holds.
	// Monte-Carlo jitter loops re-probe one victim position with fresh
	// phase errors; the phase changes every draw but the geometry does
	// not.
	jitterOK    bool
	jitterPt    geom.Point
	jitterTerms []jitterTerm
}

// jitterTerm is the jitter-independent part of one emitter's
// contribution at a fixed probe point.
type jitterTerm struct {
	d, amp float64
	skip   bool
}

// matches reports whether the array still has the configuration the
// cache was built for.
func (c *fieldCache) matches(a *Array) bool {
	return c.owner == a && c.model == a.Model && c.carrier == a.Carrier &&
		slices.Equal(c.emitters, a.Emitters)
}

// snapshot takes the array's current configuration into c, which a
// owns, dropping every entry and reusing c's buffers.
func (c *fieldCache) snapshot(a *Array) {
	c.model = a.Model
	c.carrier = a.Carrier
	c.emitters = append(c.emitters[:0], a.Emitters...)
	c.k = 2 * math.Pi / a.Carrier.Wavelength()
	c.sqrtAlpha = math.Sqrt(a.Model.Alpha)
	clear(c.entries)
	c.jitterOK = false
}

// cacheFor returns a cache valid for the array's current configuration,
// re-snapshotting the array's own cache (or building one, for a copy or
// a first probe) when the configuration changed. The returned cache is
// warm — safe for entry lookups — only when warm is true.
func (a *Array) cacheFor() (c *fieldCache, warm bool) {
	c = a.cache
	switch {
	case c != nil && c.matches(a):
		return c, true
	case c == nil || c.owner != a:
		c = &fieldCache{owner: a}
		a.cache = c
	}
	c.snapshot(a)
	return c, false
}

// fieldSum computes the superposed field at x using the cache's
// precomputed constants. It is the single source of truth for the field
// expression; FieldAt serves hits from the entry map and misses from
// here.
func (c *fieldCache) fieldSum(a *Array, x geom.Point) complex128 {
	var sum complex128
	for _, e := range a.Emitters {
		if e.Gain == 0 {
			continue
		}
		d := e.Pos.Dist(x)
		if d > c.model.Range {
			continue
		}
		amp := e.Gain * (c.sqrtAlpha / (d + c.model.Beta))
		sum += cmplx.Rect(amp, e.PhaseRad-c.k*d)
	}
	return sum
}

// jitterTermsAt returns the jitter-independent per-emitter terms at x,
// memoizing the most recent probe position.
func (c *fieldCache) jitterTermsAt(a *Array, x geom.Point) []jitterTerm {
	if c.jitterOK && c.jitterPt == x {
		return c.jitterTerms
	}
	terms := c.jitterTerms[:0]
	for _, e := range a.Emitters {
		t := jitterTerm{skip: true}
		if e.Gain != 0 {
			d := e.Pos.Dist(x)
			if d <= c.model.Range {
				t = jitterTerm{d: d, amp: e.Gain * (c.sqrtAlpha / (d + c.model.Beta))}
			}
		}
		terms = append(terms, t)
	}
	c.jitterOK = true
	c.jitterPt = x
	c.jitterTerms = terms
	return terms
}
