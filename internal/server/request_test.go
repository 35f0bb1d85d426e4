package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// keyOf decodes a JSON request body and returns its cache key.
func keyOf(t *testing.T, body string) string {
	t.Helper()
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("unmarshal %q: %v", body, err)
	}
	c, err := req.Canonicalize()
	if err != nil {
		t.Fatalf("canonicalize %q: %v", body, err)
	}
	return c.Key()
}

// Two JSON bodies naming the same simulation must hash to the same key
// regardless of field order.
func TestKeyIgnoresFieldOrder(t *testing.T) {
	a := keyOf(t, `{"kind":"sweep","scheme":"drain","width":8,"faults":4,"rates":[0.02,0.1]}`)
	b := keyOf(t, `{"rates":[0.02,0.1],"faults":4,"width":8,"scheme":"drain","kind":"sweep"}`)
	if a != b {
		t.Fatalf("field order changed key: %s vs %s", a, b)
	}
}

// A request relying on defaults and one spelling every default out must
// cache as the same entry.
func TestKeyDefaultsExplicitIdentical(t *testing.T) {
	figDefault := keyOf(t, `{"fig":"fig6"}`)
	figExplicit := keyOf(t, `{"kind":"figure","fig":"fig6","scale":"quick","seed":1}`)
	if figDefault != figExplicit {
		t.Fatalf("figure default vs explicit keys differ: %s vs %s", figDefault, figExplicit)
	}

	swDefault := keyOf(t, `{"kind":"sweep"}`)
	swExplicit := keyOf(t, `{"kind":"sweep","scheme":"drain","width":8,"height":8,
		"faults":0,"fault_seed":1,"vnets":1,"vcs_per_vn":2,"epoch":65536,"seed":1,
		"pattern":"uniform","rates":[0.02,0.10],"warmup":1000,"measure":4000}`)
	if swDefault != swExplicit {
		t.Fatalf("sweep default vs explicit keys differ: %s vs %s", swDefault, swExplicit)
	}
}

// A fault schedule changes what the sweep computes, so it MUST be part
// of the cache key: adding one, moving an event, or flipping its
// direction each produce a distinct key.
func TestKeyIncludesFaultSchedule(t *testing.T) {
	base := `{"kind":"sweep","scheme":"drain","width":8,"height":8}`
	oneFault := `{"kind":"sweep","scheme":"drain","width":8,"height":8,
		"fault_schedule":[{"cycle":1000,"a":1,"b":2,"fail":true}]}`
	laterFault := `{"kind":"sweep","scheme":"drain","width":8,"height":8,
		"fault_schedule":[{"cycle":2000,"a":1,"b":2,"fail":true}]}`
	withRecover := `{"kind":"sweep","scheme":"drain","width":8,"height":8,
		"fault_schedule":[{"cycle":1000,"a":1,"b":2,"fail":true},{"cycle":2000,"a":1,"b":2,"fail":false}]}`
	keys := map[string]string{}
	for _, body := range []string{base, oneFault, laterFault, withRecover} {
		k := keyOf(t, body)
		if prev, dup := keys[k]; dup {
			t.Fatalf("fault schedule not in cache key: %s and %s collide", prev, body)
		}
		keys[k] = body
	}
}

// Any semantically different request must miss: each axis change below
// must produce a distinct key.
func TestKeySemanticChangesDiffer(t *testing.T) {
	base := `{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4}`
	variants := []string{
		base,
		`{"kind":"sweep","scheme":"escape","width":8,"height":8,"faults":4}`,
		`{"kind":"sweep","scheme":"drain","width":10,"height":8,"faults":4}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":5}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"fault_seed":2}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"seed":2}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"pattern":"transpose"}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"rates":[0.05]}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"measure":8000}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,"faults":4,"epoch":1024}`,
		`{"fig":"fig6"}`,
		`{"fig":"fig6","scale":"full"}`,
		`{"fig":"fig6","seed":2}`,
	}
	seen := make(map[string]string, len(variants))
	for _, v := range variants {
		k := keyOf(t, v)
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %s and %s", prev, v)
		}
		seen[k] = v
	}
}

// badRequests are well-formed JSON bodies Canonicalize must reject
// (TestCanonicalizeRejectsBadRequests; also FuzzCanonicalize seeds).
var badRequests = []string{
	`{"kind":"mystery"}`,
	`{"kind":"figure"}`,                                      // no fig
	`{"fig":"fig999"}`,                                       // unknown figure
	`{"fig":"fig6","scale":"huge"}`,                          // unknown scale
	`{"kind":"sweep","scheme":"teleport"}`,                   // unknown scheme
	`{"kind":"sweep","width":1000}`,                          // mesh too large
	`{"kind":"sweep","faults":-1}`,                           // negative faults
	`{"kind":"sweep","pattern":"nope"}`,                      // unknown pattern
	`{"kind":"sweep","rates":[2.0]}`,                         // rate out of range
	`{"kind":"sweep","rates":[0.0]}`,                         // rate out of range
	`{"kind":"sweep","warmup":-1}`,                           // negative warmup
	`{"kind":"sweep","width":4,"height":4,"faults":10}`,      // 4x4 can lose at most 9 links
	`{"kind":"sweep","faults":50}`,                           // default 8x8 can lose at most 49
	`{"kind":"sweep","width":1,"height":5,"faults":1}`,       // a line has no spare link
	`{"kind":"sweep","scheme":"dor","faults":1}`,             // DoR needs a fault-free mesh
	`{"kind":"sweep","scheme":"drain","width":1,"height":1}`, // no link for a drain path
	`{"kind":"sweep","scheme":"dor","fault_schedule":[{"cycle":10,"a":1,"b":2,"fail":true}]}`,                        // DoR needs a fault-free mesh
	`{"kind":"sweep","fault_schedule":[{"cycle":-1,"a":1,"b":2,"fail":true}]}`,                                       // negative cycle
	`{"kind":"sweep","fault_schedule":[{"cycle":10,"a":1,"b":3,"fail":true}]}`,                                       // no such mesh link
	`{"kind":"sweep","fault_schedule":[{"cycle":10,"a":1,"b":2,"fail":false}]}`,                                      // recovering an up link
	`{"kind":"sweep","fault_schedule":[{"cycle":20,"a":1,"b":2,"fail":true},{"cycle":10,"a":5,"b":6,"fail":true}]}`,  // unsorted
	`{"kind":"sweep","fault_schedule":[{"cycle":10,"a":1,"b":2,"fail":true},{"cycle":10,"a":2,"b":1,"fail":false}]}`, // duplicate link event
}

// goodRequests are boundary requests that build and run, so Canonicalize
// must accept them (TestCanonicalizeRejectsBadRequests; also
// FuzzCanonicalize seeds).
var goodRequests = []string{
	`{"kind":"sweep","width":4,"height":4,"faults":9}`,
	`{"kind":"sweep","faults":49}`,
	`{"kind":"sweep","scheme":"none","width":1,"height":1}`,
	`{"kind":"sweep","scheme":"dor","faults":0}`,
}

func TestCanonicalizeRejectsBadRequests(t *testing.T) {
	for _, body := range badRequests {
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("unmarshal %q: %v", body, err)
		}
		if _, err := req.Canonicalize(); err == nil {
			t.Errorf("Canonicalize(%s) accepted a bad request", body)
		}
	}

	// Boundary requests that build and run must still be accepted.
	for _, body := range goodRequests {
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("unmarshal %q: %v", body, err)
		}
		if _, err := req.Canonicalize(); err != nil {
			t.Errorf("Canonicalize(%s) rejected a buildable request: %v", body, err)
		}
	}

	// A rates slice over the limit.
	long := Request{Kind: KindSweep, Rates: make([]float64, maxRates+1)}
	for i := range long.Rates {
		long.Rates[i] = 0.01
	}
	if _, err := long.Canonicalize(); err == nil {
		t.Errorf("Canonicalize accepted %d rates", len(long.Rates))
	}
}

// FuzzCanonicalize feeds arbitrary bodies through the server's decoding
// (unknown fields rejected, as in the handler) and Canonicalize: no
// input may panic, and an accepted request must canonicalize to the
// same cache key every time.
func FuzzCanonicalize(f *testing.F) {
	for _, body := range append(append([]string{
		`{"kind":"sweep","scheme":"drain","width":8,"faults":4,"rates":[0.02,0.1]}`,
		`{"fig":"fig6"}`,
		`{"kind":"sweep","scheme":"drain","width":8,"height":8,
			"fault_schedule":[{"cycle":1000,"a":1,"b":2,"fail":true},{"cycle":2000,"a":1,"b":2,"fail":false}]}`,
	}, badRequests...), goodRequests...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		c1, err := req.Canonicalize()
		if err != nil {
			return
		}
		c2, err := req.Canonicalize()
		if err != nil {
			t.Fatalf("second Canonicalize rejected an accepted request: %v", err)
		}
		if k1, k2 := c1.Key(), c2.Key(); k1 != k2 {
			t.Fatalf("unstable key for %s: %s vs %s", body, k1, k2)
		}
	})
}
