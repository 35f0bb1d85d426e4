package main

import (
	"testing"

	"drain/internal/sim"
)

// The scheme vocabulary lives in sim.ParseScheme; this pins the CLI's
// view of it (including the dor scheme and the escape alias).
func TestParseScheme(t *testing.T) {
	cases := map[string]bool{
		"none": true, "ideal": true, "escape": true, "escape-vc": true,
		"spin": true, "drain": true, "updown": true, "dor": true,
		"": false, "DRAIN": false, "turnmodel": false,
	}
	for in, ok := range cases {
		_, err := sim.ParseScheme(in)
		if ok && err != nil {
			t.Errorf("ParseScheme(%q): %v", in, err)
		}
		if !ok && err == nil {
			t.Errorf("ParseScheme(%q) accepted", in)
		}
	}
	// escape and escape-vc must agree.
	a, _ := sim.ParseScheme("escape")
	b, _ := sim.ParseScheme("escape-vc")
	if a != b {
		t.Error("escape aliases disagree")
	}
	// Every scheme's String form must round-trip through ParseScheme.
	for _, sch := range []sim.Scheme{
		sim.SchemeNone, sim.SchemeIdeal, sim.SchemeEscapeVC, sim.SchemeSPIN,
		sim.SchemeDRAIN, sim.SchemeUpDown, sim.SchemeDoR,
	} {
		got, err := sim.ParseScheme(sch.String())
		if err != nil || got != sch {
			t.Errorf("round-trip %v: got %v, err %v", sch, got, err)
		}
	}
}
