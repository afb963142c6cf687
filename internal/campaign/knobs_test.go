package campaign

import (
	"reflect"
	"testing"
)

// TestEveryKnobReachesTheLayers sets every wire knob of Config to a
// non-zero value and checks that worldParams, the one place a Config
// knob is copied into a layer, carries each into the same-named
// world.Params field. The knobs campaign consumes itself are skipped.
func TestEveryKnobReachesTheLayers(t *testing.T) {
	own := map[string]bool{"Seed": true, "Solver": true, "Scheduler": true, "Shards": true}
	var cfg Config
	v := reflect.ValueOf(&cfg).Elem()
	var knobs []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() || f.Tag.Get("json") == "-" || own[f.Name] {
			continue
		}
		fillKnob(t, v.Field(i), f.Name)
		knobs = append(knobs, f.Name)
	}
	wp := reflect.ValueOf(worldParams(cfg))
	for _, name := range knobs {
		got := wp.FieldByName(name)
		if !got.IsValid() {
			t.Errorf("world.Params has no field %s", name)
			continue
		}
		if want := v.FieldByName(name); !reflect.DeepEqual(got.Interface(), want.Interface()) {
			t.Errorf("%s: world.Params holds %v, Config %v", name, got, want)
		}
	}
}

// fillKnob sets v, and every exported field beneath it, to a non-zero
// value.
func fillKnob(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.25)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fillKnob(t, v.Field(i), path+"."+f.Name)
			}
		}
	default:
		t.Fatalf("%s: fillKnob cannot set a %s; extend it", path, v.Kind())
	}
}
