package routing_test

import (
	"runtime"
	"testing"

	"drain/internal/routing"
	"drain/internal/sim"
)

// maxTableMiB32 bounds the heap one routing table for the faulty 32x32
// mesh may retain; the compact state needs about a third of it.
const maxTableMiB32 = 16

// TestTableFootprint32x32Faulty measures the heap a routing table keeps
// alive the way the repo benchmark's routing.table_mib metric does: the
// HeapAlloc growth across construction, each side taken after a GC. The
// topology is that benchmark's: a 32x32 mesh with 32 faults, fault seed 1.
func TestTableFootprint32x32Faulty(t *testing.T) {
	g, mesh, err := sim.Params{Width: 32, Height: 32, Faults: 32, FaultSeed: 1}.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab, err := routing.NewTable(g, mesh)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tab)
	mib := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	t.Logf("32x32 faulty routing table retains %.2f MiB", mib)
	if mib > maxTableMiB32 {
		t.Errorf("32x32 faulty routing table retains %.2f MiB, want at most %d", mib, maxTableMiB32)
	}
}
