package trace

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

func TestScenarioJSONRoundTrip(t *testing.T) {
	orig := DefaultScenario(77, 60)
	orig.Deploy.Pattern = DeployClustered
	orig.Deploy.Clusters = 4
	orig.CommRange = 45

	var sb strings.Builder
	if err := orig.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	// The round-tripped scenario must build the identical network.
	a, _, err := orig.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := back.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.Sink() != b.Sink() {
		t.Fatalf("round trip changed the network: %d/%v vs %d/%v",
			a.Len(), a.Sink(), b.Len(), b.Sink())
	}
	for i := 0; i < a.Len(); i++ {
		na, _ := a.Node(wrsn.NodeID(i))
		nb, _ := b.Node(wrsn.NodeID(i))
		if na.Pos != nb.Pos || na.GenBps != nb.GenBps {
			t.Fatalf("node %d differs after round trip", i)
		}
	}
}

func TestScenarioFileIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	sc := DefaultScenario(5, 30)
	if err := sc.SaveScenario(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != 5 || back.Deploy.N != 30 {
		t.Errorf("loaded %+v", back)
	}
	if _, err := LoadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{garbage")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"pattern":"hexagonal","n":5}`)); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestExplicitFieldRoundTrip(t *testing.T) {
	orig := DefaultScenario(3, 40)
	orig.Deploy.Pattern = DeployCorridor
	orig.Deploy.Field = fieldFromDims(1000, 30)
	var sb strings.Builder
	if err := orig.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Deploy.Field.Width() != 1000 || back.Deploy.Field.Height() != 30 {
		t.Errorf("field lost in round trip: %+v", back.Deploy.Field)
	}
}

// FuzzReadJSON holds the scenario file reader and the build behind it
// to two contracts: no input panics ReadJSON or Build, and a scenario
// ReadJSON accepts survives WriteJSON → ReadJSON unchanged. Inputs with
// more than 256 nodes or clusters are skipped so each build stays
// cheap.
func FuzzReadJSON(f *testing.F) {
	for _, d := range []Deployment{DeployUniform, DeployClustered, DeployGrid, DeployCorridor} {
		sc := DefaultScenario(42, 60)
		sc.Deploy.Pattern = d
		var sb strings.Builder
		if err := sc.WriteJSON(&sb); err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(sb.String()))
	}
	// Inputs that once crashed Build: a radio range so small that the
	// spatial index asked for about 1e12 buckets, a field wide enough to
	// index out of its bucket array, and the widest field the format
	// holds with the sink at the far negative corner.
	f.Add([]byte(`{"seed":1,"pattern":"uniform","n":10,"comm_range":1e-4,"sink_at_center":true,"require_connected":true}`))
	f.Add([]byte(`{"pattern":"uniform","n":10,"field_w":1e308,"field_h":1e308}`))
	f.Add([]byte(`{"pattern":"uniform","n":10,"field_w":1.7976931348623157e308,"field_h":1.7976931348623157e308,"sink_x":-1.7976931348623157e308,"sink_y":-1.7976931348623157e308}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ReadJSON(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := sc.WriteJSON(&sb); err != nil {
			t.Fatalf("accepted scenario does not write: %v\nscenario: %+v", err, sc)
		}
		back, err := ReadJSON(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("written scenario does not read: %v\nwire: %s", err, sb.String())
		}
		if back != sc {
			t.Fatalf("round trip drifted:\n in: %+v\nout: %+v\nwire: %s", sc, back, sb.String())
		}
		if sc.Deploy.N > 256 || sc.Deploy.Clusters > 256 {
			return
		}
		_, _, _ = sc.Build()
	})
}
