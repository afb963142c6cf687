package jobspec

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
)

// TestWireBytesPinned holds the job-file form to the bytes committed in
// testdata: a renamed, reordered, retagged or newly non-omitted knob
// changes what -emit-job writes and what a daemon stores, and older job
// files must keep decoding to the same Spec.
func TestWireBytesPinned(t *testing.T) {
	for file, spec := range map[string]Spec{
		"testdata/wire_full.json":    fullSpec(),
		"testdata/wire_default.json": Default(42, 120),
	} {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire drifted:\n got %s\nwant %s", file, got, want)
		}
		back, err := Decode(want)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Errorf("%s: decodes to %+v, want %+v", file, back, spec)
		}
	}
}

// TestEveryKnobCrossesTheWire sets every exported campaign.Config field
// that is not tagged `json:"-"` to a non-zero value and requires the
// Spec to survive Encode → Decode unchanged, so a knob added without
// wire support fails here rather than being dropped from job files.
func TestEveryKnobCrossesTheWire(t *testing.T) {
	var cfg campaign.Config
	v := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() || f.Tag.Get("json") == "-" {
			continue
		}
		fill(t, v.Field(i), f.Name)
	}
	spec := Default(42, 60)
	spec.Campaign = cfg
	b, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Campaign, cfg) {
		t.Errorf("knobs lost on the wire:\n in: %+v\nout: %+v\nwire: %s", cfg, back.Campaign, b)
	}
}

// The per-run fields of campaign.Config do not cross the wire, so a Spec
// that carries them in-process must run as it would behind a daemon:
// without them.
func TestRunIgnoresCampaignRunFields(t *testing.T) {
	spec := Default(42, 60)
	spec.Campaign.HorizonSec = 86400
	want := runDigest(t, spec)
	spec.Campaign.Faults = faults.New(faults.Spec{Seed: 1, HorizonSec: 86400, NodeFailures: 20, RequestLossProb: 0.5}, 60)
	spec.Campaign.Checkpoint = &campaign.CheckpointPlan{Sink: func(*snapshot.Snapshot) error {
		t.Error("checkpoint plan carried in the spec's campaign was armed")
		return nil
	}}
	if got := runDigest(t, spec); got != want {
		t.Errorf("digest %s, want the wire-only run's %s", got, want)
	}
}

// fill sets v, and every exported field beneath it, to a non-zero value.
func fill(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.25)
	case reflect.String:
		v.SetString(path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fill(t, v.Field(i), path+"."+f.Name)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(t, v.Index(0), path+"[0]")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), path)
	default:
		t.Fatalf("%s: fill cannot set a %s; extend it", path, v.Kind())
	}
	if v.IsZero() {
		t.Fatalf("%s: still zero after fill", path)
	}
}
