// Package energy models node-side energy: batteries with coulomb-counter
// metering, and the first-order radio consumption model that converts
// traffic load into a drain rate.
package energy

import (
	"fmt"
	"math"
)

// Battery is a sensor node's energy store. Levels are in joules. The zero
// value is a dead battery of zero capacity; construct with NewBattery.
//
// Metering matters for the attack: nodes do not observe their true charge,
// they read a coulomb counter with finite resolution (QuantumJ). A spoofed
// charging session that delivers less than one quantum is indistinguishable
// from an inefficient legitimate session at metering granularity.
type Battery struct {
	capacity float64
	level    float64
	quantum  float64
}

// NewBattery returns a battery with the given capacity (J), initial level
// (J, clamped to [0, capacity]) and meter quantum (J). A non-positive
// quantum gets the default 0.5 J resolution.
func NewBattery(capacity, level, quantum float64) (*Battery, error) {
	b, err := MakeBattery(capacity, level, quantum)
	if err != nil {
		return nil, err
	}
	return &b, nil
}

// MakeBattery is NewBattery returning the battery by value, for callers
// that store batteries in place, such as a network's dense battery array.
func MakeBattery(capacity, level, quantum float64) (Battery, error) {
	if capacity <= 0 {
		return Battery{}, fmt.Errorf("energy: capacity must be positive, got %v", capacity)
	}
	if quantum <= 0 {
		quantum = 0.5
	}
	return Battery{capacity: capacity, level: clamp(level, 0, capacity), quantum: quantum}, nil
}

// Clone returns an independent copy of the battery with identical
// capacity, level, and meter quantum. Snapshot forks use it to give each
// forked world its own energy state.
func (b *Battery) Clone() *Battery {
	c := *b
	return &c
}

// Capacity returns the battery capacity in joules.
func (b *Battery) Capacity() float64 { return b.capacity }

// Level returns the true charge level in joules. Simulation code may read
// it; node-side logic should use MeterRead.
func (b *Battery) Level() float64 { return b.level }

// Fraction returns Level/Capacity in [0,1].
func (b *Battery) Fraction() float64 { return b.level / b.capacity }

// DepletedEpsJ absorbs floating-point residue when a drain lands exactly
// on empty; levels at or below it count as dead.
const DepletedEpsJ = 1e-6

// Depleted reports whether the battery is empty (the node is dead).
func (b *Battery) Depleted() bool { return b.level <= DepletedEpsJ }

// MeterRead returns the level as the node's coulomb counter reports it:
// rounded down to the meter quantum.
func (b *Battery) MeterRead() float64 {
	return math.Floor(b.level/b.quantum) * b.quantum
}

// Quantum returns the meter resolution in joules.
func (b *Battery) Quantum() float64 { return b.quantum }

// Charge adds up to j joules and returns the amount actually stored, which
// is less than j when the battery tops out. Negative j is ignored and
// returns 0.
func (b *Battery) Charge(j float64) float64 {
	if j <= 0 {
		return 0
	}
	stored := min(j, b.capacity-b.level)
	b.level += stored
	return stored
}

// Drain removes up to j joules and returns the amount actually removed,
// which is less than j when the battery empties. Negative j is ignored and
// returns 0.
func (b *Battery) Drain(j float64) float64 {
	if j <= 0 {
		return 0
	}
	removed := min(j, b.level)
	b.level -= removed
	return removed
}

// SetLevel forces the level (clamped to [0, capacity]); used by scenario
// setup and tests, not by simulation dynamics.
func (b *Battery) SetLevel(j float64) { b.level = clamp(j, 0, b.capacity) }

// TimeToDepletion returns how long the battery lasts under a constant drain
// of watts, in seconds. It returns +Inf for a non-positive drain.
func (b *Battery) TimeToDepletion(watts float64) float64 {
	if watts <= 0 {
		return math.Inf(1)
	}
	return b.level / watts
}

func clamp(x, lo, hi float64) float64 {
	return max(lo, min(hi, x))
}
