// Package ledger is the bookkeeping layer of a campaign: it accumulates
// everything a run produces — sessions, sink-side audit evidence, lifetime
// samples, countermeasure exposures, queueing-delay statistics, the
// caught-charger record — and nothing else. The world, session, and policy
// layers write into one shared L; the campaign composition root reads it
// back out to assemble the public Outcome. The ledger never advances time,
// touches the network, or draws randomness, which is what keeps the
// accumulation order (and therefore byte-identical Outcomes) entirely in
// the hands of the layers above.
package ledger

import (
	"fmt"
	"math"
	"reflect"

	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/defense"
	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/faults"
)

// Sample is one point of the lifetime time series.
type Sample struct {
	T         float64
	Alive     int
	Connected int
	KeyAlive  int
}

// L accumulates the ground truth and observations of one campaign run.
// Fields are exported for the composition root; mutation during a run goes
// through the world/session layers so ordering stays deterministic.
type L struct {
	// Sessions is the full session record (simulation ground truth).
	Sessions []charging.Session
	// Audit is what the sink observed: sessions, unserved requests, deaths.
	Audit detect.Audit
	// Issued / Served tally the demand the chargers saw.
	Issued int
	Served int
	// Samples is the lifetime time series (empty unless sampling is on).
	Samples []Sample
	// Exposures lists countermeasure catches; FalseAlarms counts
	// countermeasure alerts raised on genuine sessions.
	Exposures   []defense.Exposure
	FalseAlarms int
	// WitnessSamples counts neighbor-witness measurements taken.
	WitnessSamples int
	// ExtraTargets counts emergent key nodes a Progressive attacker
	// engaged beyond the plan-time set.
	ExtraTargets int
	// WaitSum/WaitN aggregate queueing delay over served requests.
	WaitSum float64
	WaitN   int
	// Faults is the fault ledger: what the plan injected, what the run
	// absorbed, what stuck. All-zero on fault-free runs.
	Faults faults.Report
	// FirstDeath is the earliest node death, +Inf when none died.
	FirstDeath float64
	// Caught records a live impoundment: when and by which detector.
	Caught   bool
	CaughtAt float64
	CaughtBy string
}

// New returns an empty ledger.
func New() *L { return &L{FirstDeath: math.Inf(1)} }

// Clone returns a deep copy: the copy shares no slice with l, so a
// checkpoint taken with Clone stays fixed while the run goes on, and a
// resumed run never writes into the checkpoint it started from. An
// empty slice clones to nil, so a checkpoint encodes it as null however
// the run came to hold it.
func (l *L) Clone() L {
	c := *l
	c.Sessions = clone(l.Sessions)
	c.Audit.Sessions = clone(l.Audit.Sessions)
	c.Audit.Deaths = clone(l.Audit.Deaths)
	c.Audit.Unserved = clone(l.Audit.Unserved)
	c.Samples = clone(l.Samples)
	c.Exposures = clone(l.Exposures)
	c.Faults.SinkWindows = clone(l.Faults.SinkWindows)
	return c
}

func clone[S ~[]E, E any](s S) S { return append(S(nil), s...) }

// Validate checks a ledger restored from a checkpoint and names the
// first field it refuses: NaN in any float, ±Inf in any float but a
// FirstDeath of +Inf (no death yet), or a negative integer. Every
// integer of the ledger, nested records included, is a count, a node
// ID or a session kind, none of which a run makes negative.
func (l *L) Validate() error {
	c := *l
	if math.IsInf(c.FirstDeath, 1) {
		c.FirstDeath = 0
	}
	if where, err := check(reflect.ValueOf(c)); err != nil {
		return fmt.Errorf("ledger: %s %v", where[1:], err)
	}
	return nil
}

// check walks v and reports the first non-finite float or negative
// integer, with its path below v (".Field" and "[i]" steps), built only
// on the way out of a failure.
func check(v reflect.Value) (where string, err error) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return "", fmt.Errorf("holds %v", f)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if n := v.Int(); n < 0 {
			return "", fmt.Errorf("is %d, want ≥ 0", n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if where, err := check(v.Field(i)); err != nil {
				return "." + v.Type().Field(i).Name + where, err
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if where, err := check(v.Index(i)); err != nil {
				return fmt.Sprintf("[%d]%s", i, where), err
			}
		}
	}
	return "", nil
}

// Catch records the charger's impoundment; only the first catch counts.
func (l *L) Catch(at float64, by string) {
	if l.Caught {
		return
	}
	l.Caught, l.CaughtAt, l.CaughtBy = true, at, by
}

// NoteDeath folds a death time into the first-death statistic.
func (l *L) NoteDeath(at float64) {
	if at < l.FirstDeath {
		l.FirstDeath = at
	}
}

// NoteWait folds one request→session queueing delay into the mean.
func (l *L) NoteWait(sec float64) {
	l.WaitSum += sec
	l.WaitN++
}

// MeanWaitSec returns the average queueing delay over served requests,
// 0 when nothing was served.
func (l *L) MeanWaitSec() float64 {
	if l.WaitN == 0 {
		return 0
	}
	return l.WaitSum / float64(l.WaitN)
}
