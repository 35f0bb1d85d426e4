// Package dense provides an open-addressed, int64-keyed hash table for
// the simulator's steady-state hot structures (coherence lines, MSHRs,
// directory entries, wormhole reassembly). It replaces built-in maps on
// those paths for two reasons:
//
//   - Cost: lookups are a multiply-shift hash plus a linear probe over
//     parallel slices — no mapaccess/aeshash calls, no per-bucket
//     pointer chasing, and Put reuses tombstone-free slots so steady
//     state allocates only on growth (amortized, and absent entirely
//     once the table reaches its working-set size).
//   - Determinism: iteration (Each) walks slots in ascending index
//     order, a pure function of the operation history — unlike map
//     range order, which Go randomizes per run. Callers that fold over
//     a Table need no collect-and-sort pass and no commutativity
//     argument.
//
// Deletion uses backward-shift compaction rather than tombstones, so a
// table's layout (and therefore Each's order) depends only on the
// sequence of Put/Delete calls, never on how long it has lived.
package dense

// minCap is the smallest non-empty table capacity (power of two).
const minCap = 16

// Table is an open-addressed hash table from int64 keys to V, using
// linear probing and backward-shift deletion. The zero value is an
// empty table ready for use.
type Table[V any] struct {
	keys []int64
	vals []V
	live []bool
	n    int
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection that
// spreads sequential keys (addresses, packet IDs) across the table.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of live entries.
func (t *Table[V]) Len() int { return t.n }

// Get returns the value stored under k.
func (t *Table[V]) Get(k int64) (V, bool) {
	if len(t.keys) == 0 {
		var zero V
		return zero, false
	}
	mask := uint64(len(t.keys) - 1)
	for i := mix64(uint64(k)) & mask; t.live[i]; i = (i + 1) & mask {
		if t.keys[i] == k {
			return t.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// Put stores v under k, replacing any existing entry.
func (t *Table[V]) Put(k int64, v V) {
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := mix64(uint64(k)) & mask
	for t.live[i] {
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
		i = (i + 1) & mask
	}
	t.keys[i] = k
	t.vals[i] = v
	t.live[i] = true
	t.n++
}

// Delete removes the entry under k, reporting whether one existed. The
// probe chain is re-compacted in place (backward shift), so no
// tombstones accumulate and the layout stays a pure function of the
// operation history.
func (t *Table[V]) Delete(k int64) bool {
	if len(t.keys) == 0 {
		return false
	}
	mask := uint64(len(t.keys) - 1)
	i := mix64(uint64(k)) & mask
	for {
		if !t.live[i] {
			return false
		}
		if t.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	// Shift later chain members back over the hole: an element at j may
	// fill slot i iff its home slot is cyclically outside (i, j] —
	// probing for it would still pass through i.
	j := i
	for {
		j = (j + 1) & mask
		if !t.live[j] {
			break
		}
		h := mix64(uint64(t.keys[j])) & mask
		if (j-h)&mask >= (j-i)&mask {
			t.keys[i] = t.keys[j]
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	var zero V
	t.live[i] = false
	t.vals[i] = zero // drop the reference so the table pins nothing
	t.n--
	return true
}

// Each calls f for every entry in ascending slot order — deterministic
// given the table's operation history — stopping early if f returns
// false. The table must not be mutated during the walk.
func (t *Table[V]) Each(f func(k int64, v V) bool) {
	for i, ok := range t.live {
		if ok && !f(t.keys[i], t.vals[i]) {
			return
		}
	}
}

// grow doubles the capacity (or allocates the first minCap slots) and
// reinserts live entries in ascending old-slot order, keeping the new
// layout deterministic. Growth is amortized: it fires only while the
// table is below its working-set size, then never again.
func (t *Table[V]) grow() {
	cap := 2 * len(t.keys)
	if cap < minCap {
		cap = minCap
	}
	keys, vals, live := t.keys, t.vals, t.live
	t.keys = make([]int64, cap)
	t.vals = make([]V, cap)
	t.live = make([]bool, cap)
	t.n = 0
	mask := uint64(cap - 1)
	for i, ok := range live {
		if !ok {
			continue
		}
		j := mix64(uint64(keys[i])) & mask
		for t.live[j] {
			j = (j + 1) & mask
		}
		t.keys[j] = keys[i]
		t.vals[j] = vals[i]
		t.live[j] = true
		t.n++
	}
}
