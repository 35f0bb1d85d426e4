// Package a exercises the keycomplete analyzer: every field of a
// cache-key struct must be serialized into the preimage or excluded
// with json:"-" plus a reasoned //drain:cachekey-exempt, and every
// exported request field must be consumed by canonicalization.
package a

// Meta is embedded-and-excluded below without a directive.
type Meta struct {
	Note string `json:"note"`
}

// Params is the fixture's cache-key preimage struct (Config.KeyStructs).
type Params struct {
	Width int   `json:"width"` // ok: serialized, in-key
	Seed  int64 `json:"seed"`  // ok: serialized, in-key

	// Workers only changes how fast a run computes, never what it
	// computes, so it is deliberately outside the key.
	//
	//drain:cachekey-exempt fixture: execution speed knob; results are byte-identical at every worker count
	Workers int `json:"-"` // ok: excluded with a reasoned directive

	// Epoch claims exemption but is serialized anyway: a stale directive.
	//
	//drain:cachekey-exempt fixture: stale claim, the field is in the encoding
	Epoch int64 `json:"epoch"` // want `\[keycomplete\] Params.Epoch carries //drain:cachekey-exempt but IS serialized into the cache-key preimage`

	Debug bool `json:"-"` // want `\[keycomplete\] Params.Debug is excluded from the cache key \(json:"-"\) without a //drain:cachekey-exempt <reason> directive`

	scratch []int // want `\[keycomplete\] Params.scratch is unexported, so encoding/json never puts it in the cache-key preimage without a //drain:cachekey-exempt <reason> directive`

	//drain:cachekey-exempt fixture: derived lookup table, rebuilt from Width on load
	cache []int // ok: unexported with a reasoned directive

	Meta `json:"-"` // want `\[keycomplete\] Params embeds a field excluded from the cache key \(json:"-"\) without a //drain:cachekey-exempt <reason> directive`
}

// Request is the fixture's request struct (Config.RequestStructs):
// exported fields must be read somewhere in this package.
type Request struct {
	Width  int    `json:"width,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Legacy string `json:"legacy,omitempty"` // want `\[keycomplete\] Request.Legacy is never read in package a`
}

// Canonicalize consumes Width and Seed; Legacy never flows anywhere.
func (r Request) Canonicalize() Params {
	return Params{Width: r.Width, Seed: r.Seed}
}
