package detect

import (
	"math"
	"sort"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// gainScoreSorted is the reference GainDetector score: group every
// session by node, sort each node's list by start, and take the longest
// zero-gain run. GainDetector.Score must match it on every input.
func gainScoreSorted(a Audit, zero float64) float64 {
	byNode := make(map[wrsn.NodeID][]SessionObs)
	for _, s := range a.Sessions {
		byNode[s.Node] = append(byNode[s.Node], s)
	}
	longest := 0
	for _, ss := range byNode {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		run := 0
		for _, s := range ss {
			if s.MeterGainJ <= zero {
				run++
				if run > longest {
					longest = run
				}
			} else {
				run = 0
			}
		}
	}
	return float64(longest)
}

// deathScoreMap is the reference DeathDetector score: each node's latest
// session end kept in a map.
func deathScoreMap(a Audit, window float64) float64 {
	if len(a.Sessions) == 0 {
		return 0
	}
	lastEnd := make(map[wrsn.NodeID]float64, len(a.Sessions))
	for _, s := range a.Sessions {
		if s.End > lastEnd[s.Node] {
			lastEnd[s.Node] = s.End
		}
	}
	implicated := 0
	for _, death := range a.Deaths {
		if end, ok := lastEnd[death.Node]; ok && death.Time >= end && death.Time-end <= window {
			implicated++
		}
	}
	return float64(implicated) / float64(len(a.Sessions))
}

// sessionsFrom decodes three bytes per session: a node ID in [-2, 9], a
// start time on a coarse grid (so starts repeat, and 255 is NaN), and a
// gain on either side of a 1 J threshold.
func sessionsFrom(data []byte) []SessionObs {
	gains := []float64{0, 0.5, 1, math.Nextafter(1, 2), 5, 90, -1, math.NaN()}
	var ss []SessionObs
	for i := 0; i+2 < len(data); i += 3 {
		start := float64(data[i+1] % 16)
		if data[i+1] == 255 {
			start = math.NaN()
		}
		ss = append(ss, SessionObs{
			Node:       wrsn.NodeID(int(data[i]%12) - 2),
			Start:      start,
			End:        start + float64(data[i+2]%4) - 1,
			MeterGainJ: gains[data[i+2]%8],
		})
	}
	return ss
}

// FuzzGainDetector holds GainDetector.Score to the sort-based reference
// on arbitrary sessions: small node-ID ranges with negative IDs,
// duplicate and unsorted starts, and gains on both sides of ZeroGainJ.
func FuzzGainDetector(f *testing.F) {
	f.Add([]byte{3, 1, 0, 3, 2, 0, 3, 3, 0}, 0.0)
	f.Add([]byte{3, 4, 0, 3, 2, 0, 4, 2, 4, 3, 9, 0}, 1.0)
	f.Add([]byte{1, 5, 0, 1, 5, 1, 1, 6, 2}, 0.75)
	f.Add([]byte{0, 1, 0, 0, 255, 0, 0, 2, 0}, 2.0)
	f.Fuzz(func(t *testing.T, data []byte, zero float64) {
		a := Audit{Sessions: sessionsFrom(data)}
		ref := zero
		if ref <= 0 {
			ref = 1 // GainDetector's default threshold
		}
		want := gainScoreSorted(a, ref)
		if got := (GainDetector{ZeroGainJ: zero}).Score(a); got != want {
			t.Fatalf("Score = %v, sorted reference %v (sessions %+v)", got, want, a.Sessions)
		}
	})
}

// TestGainDetectorFallback pins both triggers of the sorted fallback and
// shows the one-pass scan takes the normal, strictly ordered case.
func TestGainDetectorFallback(t *testing.T) {
	d := GainDetector{}
	cases := []struct {
		name   string
		ss     []SessionObs
		inPass bool
		want   float64
	}{
		{"in order", []SessionObs{
			sess(1, 0, 100, 0, true), sess(2, 50, 100, 0, true),
			sess(1, 200, 100, 0, true), sess(1, 400, 100, 90, true),
		}, true, 2},
		// Equal starts at one node: sort.Slice picks some order of the
		// tied pair, and only the sorted form reproduces that pick. Here
		// either order scores 2.
		{"equal starts", []SessionObs{
			sess(1, 0, 100, 0, true), sess(1, 200, 100, 90, true),
			sess(1, 200, 100, 0, true), sess(1, 400, 100, 0, true),
		}, false, 2},
		{"out of order", []SessionObs{
			sess(1, 400, 100, 0, true), sess(1, 0, 100, 0, true),
			sess(2, 0, 100, 90, true), sess(1, 200, 100, 0, true),
		}, false, 3},
		{"negative node", []SessionObs{
			sess(-1, 0, 100, 0, true), sess(-1, 200, 100, 0, true),
		}, false, 2},
	}
	for _, c := range cases {
		_, ok := zeroRunsInOrder(c.ss, 1)
		if ok != c.inPass {
			t.Errorf("%s: one-pass ok = %v, want %v", c.name, ok, c.inPass)
		}
		a := Audit{Sessions: c.ss}
		want := gainScoreSorted(a, 1)
		if want != c.want {
			t.Errorf("%s: reference = %v, want %v", c.name, want, c.want)
		}
		if got := d.Score(a); got != want {
			t.Errorf("%s: Score = %v, reference %v", c.name, got, want)
		}
	}
	// A few sessions at a huge node ID take the sorted form rather than
	// a table sized by the ID.
	huge := []SessionObs{sess(1<<40, 0, 100, 0, true), sess(1<<40, 100, 100, 0, true)}
	if _, ok := zeroRunsInOrder(huge, 1); ok {
		t.Error("one-pass scan accepted a node ID far above the session count")
	}
	if got := d.Score(Audit{Sessions: huge}); got != 2 {
		t.Errorf("huge-ID Score = %v, want 2", got)
	}
}

// TestDeathDetectorMatchesMap holds DeathDetector.Score to the map-based
// reference on random audits with negative, repeated and out-of-range
// node IDs, NaN and non-positive session ends.
func TestDeathDetectorMatchesMap(t *testing.T) {
	r := rng.New(22).Split("death-detector")
	d := DeathDetector{}
	ends := []float64{-5, 0, math.NaN(), 100, 200, 3600, math.Inf(1)}
	for trial := 0; trial < 2000; trial++ {
		var a Audit
		for range r.Intn(12) {
			end := ends[r.Intn(len(ends))]
			a.Sessions = append(a.Sessions, SessionObs{Node: wrsn.NodeID(r.Intn(8) - 1), Start: end - 100, End: end})
		}
		for range r.Intn(6) {
			node := wrsn.NodeID(r.Intn(10) - 1)
			if trial%50 == 0 {
				node = 1 << 40
			}
			a.Deaths = append(a.Deaths, DeathObs{Node: node, Time: r.Uniform(-100, 3e4)})
		}
		want := deathScoreMap(a, 6*3600)
		if got := d.Score(a); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d: Score = %v, map reference %v (audit %+v)", trial, got, want, a)
		}
	}
}
