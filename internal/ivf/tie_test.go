package ivf

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/quant"
	"repro/internal/vec"
)

// selectProbeCells scores centroids through vec.L2SquaredBatch in blocks; it
// must pick exactly the cells, in exactly the order, that one vec.L2Squared
// per centroid picks — including when centroids tie (duplicate centroids on
// both sides of the 256-centroid block boundary) and the `d >= h[0].d` rule
// decides.
func TestSelectProbeCellsMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, nlist := range []int{1, 5, 255, 256, 257, 600} {
		const dim = 7
		cent := vec.NewMatrix(nlist, dim)
		for i := range cent.Data() {
			cent.Data()[i] = float32(rng.Intn(3)) // coarse grid: many exact ties
		}
		ix := &Index{cfg: Config{Dim: dim, NList: nlist}, centroids: cent}
		for trial := 0; trial < 20; trial++ {
			q := make([]float32, dim)
			for d := range q {
				q[d] = float32(rng.Intn(3))
			}
			nProbe := rng.Intn(nlist) + 1
			_, got := selectProbeCells(ix, q, nProbe, nil, nil)

			// The selection as it was before the batch kernel.
			var h []cellDist
			for c := 0; c < nlist; c++ {
				d := vec.L2Squared(q, cent.Row(c))
				if len(h) < nProbe {
					h = append(h, cellDist{d, int32(c)})
					siftUpCell(h, len(h)-1)
					continue
				}
				if d >= h[0].d {
					continue
				}
				h[0] = cellDist{d, int32(c)}
				siftDownCell(h, 0)
			}
			for end := len(h) - 1; end > 0; end-- {
				h[0], h[end] = h[end], h[0]
				siftDownCell(h[:end], 0)
			}
			want := make([]int32, len(h))
			for i := range h {
				want[i] = h[i].cell
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("nlist=%d nProbe=%d: batch selection %v != row loop %v", nlist, nProbe, got, want)
			}
		}
	}
}

// cellOf returns the cell holding id, or -1.
func cellOf(ix *Index, id int64) int {
	for c := range ix.lists {
		for _, x := range ix.lists[c].ids {
			if x == id {
				return c
			}
		}
	}
	return -1
}

// TestScoreTiesAcrossCells constructs the case ROADMAP item 1 was red on: two
// vectors on either side of a cell boundary that SQ4 quantizes to the same
// code, so any query scores them identically. Which of the two a top-1
// search returns must not depend on which cell is visited first: sequential
// scans visit cells by centroid distance (so the queries v1 and v2 visit the
// pair's cells in opposite orders), the grouped scan by cell index. All must
// return the lower id.
func TestScoreTiesAcrossCells(t *testing.T) {
	const dim = 8
	data := gaussianData(600, dim, 43)
	sq := quant.NewSQ(dim, 4)
	ix := buildIndex(t, data, Config{Dim: dim, NList: 10, Seed: 4, Quantizer: sq})

	code1, code2 := make([]byte, sq.CodeSize()), make([]byte, sq.CodeSize())
	pairs := 0
	nextID := int64(10_000)
	for a := 0; a < ix.NList() && pairs < 4; a++ {
		for b := a + 1; b < ix.NList() && pairs < 4; b++ {
			// v1 and v2 sit a hair on either side of the a|b bisector.
			ca, cb := ix.Centroid(a), ix.Centroid(b)
			v1, v2 := make([]float32, dim), make([]float32, dim)
			for d := range v1 {
				mid, step := (ca[d]+cb[d])/2, (ca[d]-cb[d])*1e-3
				v1[d], v2[d] = mid+step, mid-step
			}
			c1, _ := ix.centroids.ArgMinL2(v1)
			c2, _ := ix.centroids.ArgMinL2(v2)
			sq.Encode(v1, code1)
			sq.Encode(v2, code2)
			if c1 == c2 || !bytes.Equal(code1, code2) {
				continue
			}
			// The vector in the lower-numbered cell gets the higher id, so
			// neither cell-index order nor first-come order yields the lower
			// id by accident.
			hi, lo := nextID+1, nextID
			nextID += 2
			id1, id2 := lo, hi
			if c1 < c2 {
				id1, id2 = hi, lo
			}
			if err := ix.Add(id1, v1); err != nil {
				t.Fatal(err)
			}
			if err := ix.Add(id2, v2); err != nil {
				t.Fatal(err)
			}
			if cellOf(ix, id1) == cellOf(ix, id2) {
				t.Fatalf("pair (%d,%d) did not straddle a cell boundary", id1, id2)
			}
			pairs++
			for _, q := range [][]float32{v1, v2} {
				seq := ix.Search(q, 1, ix.NList())
				grp, _, _ := searchGroup(ix, [][]float32{q, q}, 1, ix.NList(), nil)
				if len(seq) != 1 || seq[0].ID != lo {
					t.Fatalf("cells %d|%d: sequential top-1 = %v, want id %d", c1, c2, seq, lo)
				}
				if !reflect.DeepEqual(grp[0], seq) || !reflect.DeepEqual(grp[1], seq) {
					t.Fatalf("cells %d|%d: grouped %v != sequential %v", c1, c2, grp, seq)
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("constructed no straddling tie pair; the test no longer tests anything")
	}
}

// TestTieHeavySearchMatchesSortedReference floods the top-k boundary with
// ties (SQ4 at dim 4 has few distinct codes) and checks every path against
// the one answer a total order allows: all live codes sorted by (score, id).
func TestTieHeavySearchMatchesSortedReference(t *testing.T) {
	const dim = 4
	data := gaussianData(1500, dim, 45)
	sq := quant.NewSQ(dim, 4)
	ix := buildIndex(t, data, Config{Dim: dim, NList: 12, Seed: 6, Quantizer: sq})
	for id := int64(0); id < 1500; id += 11 {
		ix.Remove(id)
	}
	queries := gaussianData(16, dim, 46)
	qs := make([][]float32, queries.Len())
	for i := range qs {
		qs[i] = queries.Row(i)
	}
	kernel := quant.NewBatchDistancer(sq)
	cs := sq.CodeSize()
	for _, k := range []int{1, 5, 40} {
		grouped, _, _ := searchGroup(ix, qs, k, ix.NList(), nil)
		ties := 0
		for qi, q := range qs {
			kernel.BindQuery(q)
			var all []vec.Neighbor
			for c := range ix.lists {
				l := &ix.lists[c]
				for i, id := range l.ids {
					if ix.isDead(c, i) {
						continue
					}
					all = append(all, vec.Neighbor{ID: id, Score: kernel.Distance(l.codes[i*cs : (i+1)*cs])})
				}
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].Score != all[j].Score {
					return all[i].Score < all[j].Score
				}
				return all[i].ID < all[j].ID
			})
			if all[k-1].Score == all[k].Score {
				ties++
			}
			want := all[:k]
			if got := ix.Search(q, k, ix.NList()); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d query %d: sequential %v != sorted reference %v", k, qi, got, want)
			}
			if !reflect.DeepEqual(grouped[qi], want) {
				t.Fatalf("k=%d query %d: grouped %v != sorted reference %v", k, qi, grouped[qi], want)
			}
		}
		if ties == 0 {
			t.Fatalf("k=%d: no query had a tie at the k boundary; the corpus no longer exercises ties", k)
		}
	}
}
