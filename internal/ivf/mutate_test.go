package ivf

import (
	"testing"

	"repro/internal/vec"
)

func hasID(res []vec.Neighbor, id int64) bool {
	for _, n := range res {
		if n.ID == id {
			return true
		}
	}
	return false
}

func TestRemoveHidesVector(t *testing.T) {
	data := gaussianData(300, 8, 30)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 8, Seed: 1})
	q := data.Row(7)
	res := ix.Search(q, 3, 8)
	if !hasID(res, 7) {
		t.Fatal("self-query should retrieve the vector before removal")
	}
	if !ix.Remove(7) {
		t.Fatal("Remove returned false for a live id")
	}
	if ix.Len() != 299 {
		t.Fatalf("Len after remove = %d", ix.Len())
	}
	if hasID(ix.Search(q, 3, 8), 7) {
		t.Fatal("removed vector still retrievable")
	}
}

func TestRemoveIdempotent(t *testing.T) {
	data := gaussianData(100, 4, 31)
	ix := buildIndex(t, data, Config{Dim: 4, NList: 4, Seed: 1})
	if !ix.Remove(5) {
		t.Fatal("first remove should succeed")
	}
	if ix.Remove(5) {
		t.Fatal("second remove should fail")
	}
	if ix.Remove(9999) {
		t.Fatal("removing an unknown id should fail")
	}
	if ix.Len() != 99 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestRemoveUntrained(t *testing.T) {
	ix, _ := New(Config{Dim: 4})
	if ix.Remove(1) {
		t.Fatal("untrained Remove should fail")
	}
}

func TestCompactReclaimsMemory(t *testing.T) {
	data := gaussianData(400, 8, 32)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 8, Seed: 2})
	before := ix.MemoryBytes()
	for id := int64(0); id < 200; id++ {
		if !ix.Remove(id) {
			t.Fatalf("remove %d failed", id)
		}
	}
	if ix.Tombstones() != 200 {
		t.Fatalf("tombstones = %d", ix.Tombstones())
	}
	// Tombstoned entries still occupy list space until Compact.
	if ix.MemoryBytes() != before {
		t.Fatal("memory should be unchanged before Compact")
	}
	ix.Compact()
	if ix.Tombstones() != 0 {
		t.Fatal("tombstones should be cleared by Compact")
	}
	if ix.MemoryBytes() >= before {
		t.Fatalf("memory after Compact %d should be < %d", ix.MemoryBytes(), before)
	}
	// Remaining vectors still searchable; removed ones still gone.
	if hasID(ix.Search(data.Row(100), 5, 8), 100) {
		t.Fatal("compacted-away vector resurfaced")
	}
	res := ix.Search(data.Row(300), 1, ix.NList())
	if len(res) == 0 || res[0].ID != 300 {
		t.Fatal("surviving vector lost by Compact")
	}
}

func TestCompactNoop(t *testing.T) {
	data := gaussianData(50, 4, 33)
	ix := buildIndex(t, data, Config{Dim: 4, NList: 4, Seed: 1})
	ix.Compact() // no tombstones: must be a no-op
	if ix.Len() != 50 {
		t.Fatalf("Len after no-op Compact = %d", ix.Len())
	}
}

func TestUpdateMovesVector(t *testing.T) {
	data := gaussianData(200, 4, 34)
	ix := buildIndex(t, data, Config{Dim: 4, NList: 6, Seed: 3})
	// Move vector 10 to a far-away location.
	newPos := []float32{50, 50, 50, 50}
	if err := ix.Update(10, newPos); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 200 {
		t.Fatalf("Len after update = %d", ix.Len())
	}
	// The old location must no longer return id 10; the new one must.
	if hasID(ix.Search(data.Row(10), 3, ix.NList()), 10) {
		t.Fatal("old location still returns the updated id")
	}
	res := ix.Search(newPos, 1, ix.NList())
	if len(res) == 0 || res[0].ID != 10 {
		t.Fatalf("new location does not return the updated id: %+v", res)
	}
}

func TestUpdateUnknownID(t *testing.T) {
	data := gaussianData(50, 4, 35)
	ix := buildIndex(t, data, Config{Dim: 4, NList: 4, Seed: 1})
	if err := ix.Update(999, []float32{0, 0, 0, 0}); err == nil {
		t.Fatal("updating an unknown id should error")
	}
}

// Remove + re-Add of the same id must not resurrect the old vector.
func TestRemoveReaddSameID(t *testing.T) {
	data := gaussianData(150, 4, 36)
	ix := buildIndex(t, data, Config{Dim: 4, NList: 5, Seed: 4})
	old := vec.Copy(data.Row(20))
	if !ix.Remove(20) {
		t.Fatal("remove failed")
	}
	fresh := []float32{30, 30, 30, 30}
	if err := ix.Add(20, fresh); err != nil {
		t.Fatal(err)
	}
	// Old location: id 20 must not appear.
	if hasID(ix.Search(old, 3, ix.NList()), 20) {
		t.Fatal("old vector resurrected after re-add")
	}
	// New location: id 20 must be the best hit.
	res := ix.Search(fresh, 1, ix.NList())
	if len(res) == 0 || res[0].ID != 20 {
		t.Fatal("re-added vector not found")
	}
	// And survives Compact.
	ix.Compact()
	res = ix.Search(fresh, 1, ix.NList())
	if len(res) == 0 || res[0].ID != 20 {
		t.Fatal("re-added vector lost by Compact")
	}
}

func TestScanStatsExcludeTombstones(t *testing.T) {
	data := gaussianData(100, 4, 37)
	ix := buildIndex(t, data, Config{Dim: 4, NList: 1, Seed: 5})
	_, before := ix.SearchWithStats(data.Row(0), 5, 1)
	for id := int64(0); id < 40; id++ {
		ix.Remove(id)
	}
	_, after := ix.SearchWithStats(data.Row(0), 5, 1)
	if after.VectorsScanned != before.VectorsScanned-40 {
		t.Fatalf("scanned %d after removals, want %d", after.VectorsScanned, before.VectorsScanned-40)
	}
}

// TestEachIDVisitsLiveIDs: EachID visits every live id once and no
// tombstoned one, before and after Compact, including an id removed and
// re-added (its old slot is dead, its new one live).
func TestEachIDVisitsLiveIDs(t *testing.T) {
	data := gaussianData(300, 8, 33)
	ix := buildIndex(t, data, Config{Dim: 8, NList: 8, Seed: 3})
	live := make(map[int64]int)
	for id := int64(0); id < 300; id++ {
		live[id] = 1
	}
	for id := int64(0); id < 300; id += 3 {
		if !ix.Remove(id) {
			t.Fatalf("remove %d failed", id)
		}
		delete(live, id)
	}
	if err := ix.Add(6, data.Row(6)); err != nil {
		t.Fatal(err)
	}
	live[6] = 1
	check := func(stage string) {
		t.Helper()
		seen := make(map[int64]int)
		ix.EachID(func(id int64) { seen[id]++ })
		if len(seen) != len(live) || len(seen) != ix.Len() {
			t.Fatalf("%s: visited %d distinct ids, want %d live (Len %d)", stage, len(seen), len(live), ix.Len())
		}
		for id, n := range seen {
			if n != 1 || live[id] != 1 {
				t.Fatalf("%s: id %d visited %d times, live %v", stage, id, n, live[id] == 1)
			}
		}
	}
	check("with tombstones")
	ix.Compact()
	check("after Compact")
}
