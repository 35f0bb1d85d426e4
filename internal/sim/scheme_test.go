package sim

import "testing"

// schemeVocabulary is every spelling ParseScheme documents: each
// Scheme.String name plus the "escape" shorthand.
var schemeVocabulary = []string{"none", "ideal", "escape", "escape-vc", "spin", "drain", "updown", "dor"}

func TestParseSchemeVocabulary(t *testing.T) {
	for s := SchemeNone; s <= SchemeDoR; s++ {
		if got, err := ParseScheme(s.String()); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, name := range schemeVocabulary {
		if _, err := ParseScheme(name); err != nil {
			t.Errorf("documented spelling %q rejected: %v", name, err)
		}
	}
	for _, bad := range []string{"", "DRAIN", " drain", "escape_vc", "Scheme(4)"} {
		if _, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) accepted", bad)
		}
	}
}

// FuzzParseScheme: no input may panic the scheme parser, and every
// accepted scheme must round-trip through Scheme.String.
func FuzzParseScheme(f *testing.F) {
	for _, s := range append([]string{"", "Scheme(4)", "DRAIN"}, schemeVocabulary...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseScheme(s)
		if err != nil {
			return
		}
		back, err := ParseScheme(sc.String())
		if err != nil || back != sc {
			t.Fatalf("ParseScheme(%q) = %v, but ParseScheme(%q) = %v, %v", s, sc, sc.String(), back, err)
		}
	})
}
