package experiments

import (
	"fmt"

	"repro/internal/hermes"
	"repro/internal/ivf"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/rerank"
)

func init() {
	register("ablation-prune", AblationPrune)
	register("ablation-rerank", AblationRerank)
	register("ablation-seeds", AblationSeeds)
	register("ablation-residual", AblationResidual)
}

// AblationPrune studies SPANN-style query-time pruning on top of Hermes'
// fixed deep-cluster budget (DESIGN.md design decision; the paper's related
// work positions SPANN's centroid pruning as complementary). It sweeps the
// pruning threshold and reports accuracy vs deep searches saved.
func AblationPrune(sc Scale) ([]*Table, error) {
	f, err := buildFixture(sc, 5)
	if err != nil {
		return nil, err
	}
	st, err := hermes.Build(f.corpus.Vectors, hermes.BuildOptions{NumShards: sc.Shards})
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "ablation-prune",
		Title:  "Adaptive deep-cluster pruning: accuracy vs deep searches (extension)",
		Header: []string{"prune_eps", "ndcg", "mean_deep_searches", "deep_search_savings"},
		Notes: []string{
			"measured; eps=0 disables pruning (fixed 3-cluster budget)",
			"easy queries stop early when one shard's sampled doc clearly dominates",
		},
	}
	baseDeep := 0.0
	for _, eps := range []float64{0, 0.05, 0.1, 0.25, 0.5, 1.0} {
		p := hermes.DefaultParams()
		p.PruneEps = eps
		var ndcg float64
		deepCount := 0
		for i := 0; i < f.queries.Vectors.Len(); i++ {
			res, stats := st.Search(f.queries.Vectors.Row(i), p)
			ndcg += metrics.NDCGAtK(neighborIDs(res), f.truth[i], f.k)
			deepCount += len(stats.DeepShards)
		}
		n := float64(f.queries.Vectors.Len())
		meanDeep := float64(deepCount) / n
		if eps == 0 {
			baseDeep = meanDeep
		}
		savings := 0.0
		if baseDeep > 0 {
			savings = 1 - meanDeep/baseDeep
		}
		tab.AddRow(eps, ndcg/n, meanDeep, savings)
	}
	return []*Table{tab}, nil
}

// AblationRerank measures how much full-precision re-ranking of retrieved
// candidates recovers the error introduced by aggressive quantization —
// the paper reranks its five retrieved chunks by inner-product distance
// before prepending the best one.
func AblationRerank(sc Scale) ([]*Table, error) {
	dim := 48 // divisible by 3 for the PQ point
	local := sc
	local.Dim = dim
	f, err := buildFixture(local, 5)
	if err != nil {
		return nil, err
	}
	rr := rerank.NewFromMatrix(rerank.L2, f.corpus.Vectors)

	tab := &Table{
		ID:     "ablation-rerank",
		Title:  "Full-precision reranking vs quantizer (design-choice ablation)",
		Header: []string{"quantizer", "ndcg_raw", "ndcg_reranked", "top1_raw", "top1_reranked"},
		Notes: []string{
			"measured; rerank re-scores the k=5 candidates against fp32 vectors (paper Section 5)",
			"top1 = fraction of queries whose best candidate matches exhaustive ground truth",
		},
	}
	pq, err := quant.NewPQ(dim, dim/3, 8, sc.Seed)
	if err != nil {
		return nil, err
	}
	for _, q := range []quant.Quantizer{quant.NewFlat(dim), quant.NewSQ(dim, 8), quant.NewSQ(dim, 4), pq} {
		ix, err := ivf.New(ivf.Config{Dim: dim, Quantizer: q, Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		if err := ix.TrainAndAdd(f.corpus.Vectors, nil); err != nil {
			return nil, err
		}
		nProbe := ix.NList() / 4
		if nProbe < 1 {
			nProbe = 1
		}
		var ndcgRaw, ndcgRR, top1Raw, top1RR float64
		for i := 0; i < f.queries.Vectors.Len(); i++ {
			qv := f.queries.Vectors.Row(i)
			res := ix.Search(qv, f.k, nProbe)
			ndcgRaw += metrics.NDCGAtK(neighborIDs(res), f.truth[i], f.k)
			if len(res) > 0 && len(f.truth[i]) > 0 && res[0].ID == f.truth[i][0] {
				top1Raw++
			}
			ranked := rr.Rerank(qv, res)
			ndcgRR += metrics.NDCGAtK(neighborIDs(ranked), f.truth[i], f.k)
			if len(ranked) > 0 && len(f.truth[i]) > 0 && ranked[0].ID == f.truth[i][0] {
				top1RR++
			}
		}
		n := float64(f.queries.Vectors.Len())
		tab.AddRow(q.Name(), ndcgRaw/n, ndcgRR/n, top1Raw/n, top1RR/n)
	}
	return []*Table{tab}, nil
}

// AblationSeeds quantifies the multi-seed imbalance minimization of Section
// 4.1: the shard-size imbalance of each individual k-means seed vs the seed
// chosen by the sweep.
func AblationSeeds(sc Scale) ([]*Table, error) {
	f, err := buildFixture(sc, 5)
	if err != nil {
		return nil, err
	}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	tab := &Table{
		ID:     "ablation-seeds",
		Title:  "Multi-seed k-means imbalance minimization (paper Section 4.1)",
		Header: []string{"seed", "imbalance_max_over_min", "inertia", "chosen"},
		Notes: []string{
			"measured; the builder trains on a document subset per seed and keeps the most balanced",
		},
	}
	best, bestSeed, err := kmeans.BestSeed(f.corpus.Vectors, kmeans.Config{
		K: sc.Shards, PlusPlus: true, SampleSize: sc.Chunks / 10,
	}, seeds)
	if err != nil {
		return nil, err
	}
	for _, seed := range seeds {
		r, err := kmeans.Train(f.corpus.Vectors, kmeans.Config{
			K: sc.Shards, PlusPlus: true, SampleSize: sc.Chunks / 10, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		tab.AddRow(seed, r.Imbalance(), r.Inertia, fmt.Sprint(seed == bestSeed))
	}
	tab.Notes = append(tab.Notes, fmt.Sprintf("chosen seed %d with imbalance %.2f", bestSeed, best.Imbalance()))
	return []*Table{tab}, nil
}

// AblationResidual compares plain vs residual encoding (the FAISS IVF-PQ
// convention) across quantizers: encoding each vector's offset from its
// coarse centroid spends the bit budget on a tighter distribution, lifting
// recall for aggressive codes at identical memory cost.
func AblationResidual(sc Scale) ([]*Table, error) {
	dim := 48
	local := sc
	local.Dim = dim
	f, err := buildFixture(local, 10)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		ID:     "ablation-residual",
		Title:  "Residual encoding vs plain across quantizers (design-choice ablation)",
		Header: []string{"quantizer", "recall_plain", "recall_residual", "bytes_per_vec"},
		Notes: []string{
			"measured; identical index memory — residual changes only what the code represents",
		},
	}
	type mkQuant func() (quant.Quantizer, error)
	schemes := []struct {
		name string
		mk   mkQuant
	}{
		{"SQ8", func() (quant.Quantizer, error) { return quant.NewSQ(dim, 8), nil }},
		{"SQ4", func() (quant.Quantizer, error) { return quant.NewSQ(dim, 4), nil }},
		{"PQ (3 dims/byte)", func() (quant.Quantizer, error) { return quant.NewPQ(dim, dim/3, 8, sc.Seed) }},
	}
	for _, s := range schemes {
		recalls := make(map[bool]float64)
		var codeSize int
		for _, byResidual := range []bool{false, true} {
			q, err := s.mk()
			if err != nil {
				return nil, err
			}
			codeSize = q.CodeSize()
			ix, err := ivf.New(ivf.Config{Dim: dim, NList: 64, Quantizer: q, Seed: sc.Seed, ByResidual: byResidual})
			if err != nil {
				return nil, err
			}
			if err := ix.TrainAndAdd(f.corpus.Vectors, nil); err != nil {
				return nil, err
			}
			got := make([][]int64, f.queries.Vectors.Len())
			for i := 0; i < f.queries.Vectors.Len(); i++ {
				got[i] = neighborIDs(ix.Search(f.queries.Vectors.Row(i), f.k, 10))
			}
			recalls[byResidual] = metrics.MeanRecall(got, f.truth, f.k)
		}
		tab.AddRow(s.name, recalls[false], recalls[true], codeSize)
	}
	return []*Table{tab}, nil
}
