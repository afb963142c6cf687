package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestOpListDeterministicPerSeed(t *testing.T) {
	for _, gen := range []struct {
		name  string
		specs func(uint64) any
	}{
		{"attack-200", func(s uint64) any { return attackSpecs(s) }},
		{"legit-10k", func(s uint64) any { return legitSpecs(s) }},
		{"daemon", func(s uint64) any { return daemonSpecs(s) }},
		{"sweep-sharded", func(s uint64) any { return specSeeds(s, "sweep-sharded", sweepDistinct) }},
	} {
		if !reflect.DeepEqual(gen.specs(7), gen.specs(7)) {
			t.Errorf("%s: seed 7 gave two different op lists", gen.name)
		}
		if reflect.DeepEqual(gen.specs(7), gen.specs(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", gen.name)
		}
	}
	seeds := specSeeds(7, "x", 200)
	seen := make(map[uint64]bool)
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("specSeeds repeated seed %d", s)
		}
		seen[s] = true
	}
	if reflect.DeepEqual(specSeeds(7, "a", 8), specSeeds(7, "b", 8)) {
		t.Error("workload salt does not change the seeds")
	}
	if opCount(16, 15) != 240 || opCount(16, 1) != minOps {
		t.Errorf("opCount(16, 15)=%d, opCount(16, 1)=%d", opCount(16, 15), opCount(16, 1))
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n := minOps; n <= 5000; n++ {
		p := tailPercentile(n)
		if beyond := n - nearestRank(p, n); beyond < tailBeyond {
			t.Fatalf("n=%d: p%d leaves %d ops beyond it", n, p, beyond)
		}
		if p < 99 && n-nearestRank(p+1, n) >= tailBeyond {
			t.Fatalf("n=%d: p%d is not the highest percentile with %d beyond", n, p, tailBeyond)
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		beyond := 0
		tail := percentile(xs, p)
		for _, x := range xs {
			if x > tail {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Fatalf("n=%d: %d values above the p%d value %v", n, beyond, p, tail)
		}
	}
	if got := tailPercentile(240); got != 95 {
		t.Errorf("tailPercentile(240) = %d, want 95", got)
	}
	if got := tailPercentile(minOps); got != 50 {
		t.Errorf("tailPercentile(%d) = %d, want 50", minOps, got)
	}
}

func TestFailedFracCountsEveryCause(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 0 {
		t.Fatal("empty tally has failures")
	}
	for i := 0; i < 7; i++ {
		tl.ok()
	}
	tl.fail(causeRejected)
	tl.fail(causeRejected)
	tl.fail(causeDigest)
	tl.fail(causeError)
	if tl.attempted != 11 || tl.failed() != 4 {
		t.Fatalf("attempted %d failed %d, want 11 and 4", tl.attempted, tl.failed())
	}
	if got := tl.failedFrac(); got != 4.0/11 {
		t.Errorf("failedFrac = %v, want 4/11", got)
	}
	want := map[string]int{causeRejected: 2, causeDigest: 1, causeError: 1}
	if !reflect.DeepEqual(tl.causes, want) {
		t.Errorf("causes %v, want %v", tl.causes, want)
	}
}

func TestParseSteal(t *testing.T) {
	stat := []byte("cpu  52637 0 2865 170232 171 0 2096 9546 0 0\n" +
		"cpu0 25734 0 1289 77081 107 0 1028 4675 0 0\n" +
		"intr 12345\n")
	got, err := parseSteal(stat)
	if err != nil || got != 9546 {
		t.Fatalf("parseSteal = %d, %v; want 9546", got, err)
	}
	if _, err := parseSteal([]byte("cpu  1 2 3 4\n")); err == nil {
		t.Error("short cpu line parsed")
	}
	if _, err := parseSteal([]byte("cpu0 1 2 3 4 5 6 7 8 9\n")); err == nil {
		t.Error("stat without the aggregate cpu line parsed")
	}
	if _, err := stealTicks(); err != nil {
		t.Errorf("reading this host's steal: %v", err)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	for op := 0; op < 2; op++ {
		root := tr.add("op", op, -1, at(0), at(10))
		tr.add("campaign.run", op, root, at(2), at(8))
		tr.add("snapshot.decode", op, -1, at(0), at(1))
		tr.add("snapshot.decode", op, -1, at(1), at(2))
	}
	tr.add("snapshot.build", -1, -1, at(0), at(3))
	got := tr.selfMS()
	want := map[string]float64{"op": 4, "campaign.run": 6, "snapshot.decode": 2, "snapshot.build": 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfMS = %v, want %v", got, want)
	}
}

// The manifest beside the benchmark must name exactly the workloads and
// metrics the harness prints.
func TestManifestMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("manifest workloads %v, harness %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: manifest has %d metrics, harness %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: manifest %s [%s], harness %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

func TestSpeedScale(t *testing.T) {
	if got := speedScale(probeNominalMS, probeNominalMS, 1); got != 1 {
		t.Errorf("at nominal speed: scale %v, want 1", got)
	}
	if got := speedScale(probeNominalMS, 3*probeNominalMS, 1); got != 0.5 {
		t.Errorf("probes averaging twice nominal: scale %v, want 0.5", got)
	}
	if got := speedScale(2*probeNominalMS, 2*probeNominalMS, 0.5); math.Abs(got-1/math.Sqrt2) > 1e-12 {
		t.Errorf("sensitivity 0.5 at half speed: scale %v, want 1/√2", got)
	}
	for _, w := range workloads {
		if w.sensitivity < 0 || w.sensitivity > 1 {
			t.Errorf("%s: sensitivity %v outside [0, 1]", w.name, w.sensitivity)
		}
	}
	if p := probe(); p <= 0 {
		t.Errorf("probe took %v ms", p)
	}
	if n := testing.AllocsPerRun(3, func() { probe() }); n != 0 {
		t.Errorf("probe allocates %v times", n)
	}
}
