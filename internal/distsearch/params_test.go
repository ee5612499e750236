package distsearch

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/hermes"
)

// TestParamsAgreeWithStore runs Params that leave fields zero or prune by
// PruneEps through the store and through a LaunchLocal cluster of the
// wire_bound ladder corpus. The coordinator must fill zero fields from
// Params.WithDefaults and cut the deep set by PruneEps exactly as the store
// does, so Store.Search, Coordinator.Search and a one-query SearchBatch
// return the same neighbours, order included, and Search deep-searches the
// store's shards.
func TestParamsAgreeWithStore(t *testing.T) {
	lc := ladderCases[0]
	c, err := corpus.Generate(lc.spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: lc.shards, QuantBits: 8, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := LaunchLocal(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	co, err := Dial(cl.Addrs(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	qs := c.Queries(ladderQueries, 7).Vectors

	pruned := hermes.Params{K: 5, SampleNProbe: 4, DeepNProbe: 16, DeepClusters: 3, PruneEps: 0.02}
	noDeep := pruned
	noDeep.DeepClusters, noDeep.PruneEps = 0, 0
	for _, row := range []struct {
		name string
		p    hermes.Params
	}{
		{"prune_eps", pruned},
		{"k_only", hermes.Params{K: 5}},
		{"zero_deep_clusters", noDeep},
	} {
		for qi := 0; qi < qs.Len(); qi++ {
			q := qs.Row(qi)
			want, stats := st.Search(q, row.p)
			res, err := co.Search(q, row.p)
			if err != nil {
				t.Fatalf("%s query %d: Search: %v", row.name, qi, err)
			}
			if !reflect.DeepEqual(res.Neighbors, want) || !reflect.DeepEqual(res.DeepNodes, stats.DeepShards) {
				t.Fatalf("%s query %d: coordinator %v on shards %v != store %v on shards %v",
					row.name, qi, res.Neighbors, res.DeepNodes, want, stats.DeepShards)
			}
			batch, err := co.SearchBatch([][]float32{q}, row.p)
			if err != nil {
				t.Fatalf("%s query %d: SearchBatch: %v", row.name, qi, err)
			}
			if !reflect.DeepEqual(batch.Results[0], want) {
				t.Fatalf("%s query %d: batch %v != store %v", row.name, qi, batch.Results[0], want)
			}
		}
	}
}
