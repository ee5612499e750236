package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/corpus"
	"repro/internal/distsearch"
	"repro/internal/hermes"
	"repro/internal/vec"
	"repro/pkg/indexfile"
)

// system is one workload's store, served the way a deployment serves it:
// built, written to disk, read back, one node per shard on loopback TCP and
// a coordinator dialled to them.
type system struct {
	w       workload
	corpus  *corpus.Corpus
	store   *hermes.Store
	cluster *distsearch.LocalCluster
	co      *distsearch.Coordinator
	queries *vec.Matrix
	phases  setupPhases
}

// setupPhases is where one set-up spent its time, in seconds, and what it
// left on disk.
type setupPhases struct {
	generate, build, write, load, launch, warm, total float64
	diskMB                                            float64
}

// corpusSeed is fixed: the datastore is the same in every run and -seed
// draws the traffic on it (queries, writes, arrival times). Shard balance
// and recall change with the corpus by more than the bounds, so a corpus
// per seed would make two runs of one commit disagree.
const corpusSeed = 1

// setUp does everything between process start and the first timed query.
// dir receives the index files and is emptied again before returning.
func setUp(w workload, seed int64, dir string) (*system, error) {
	s := &system{w: w}
	start := time.Now()
	lap := func(dst *float64, t0 time.Time) time.Time {
		now := time.Now()
		*dst = now.Sub(t0).Seconds()
		return now
	}

	spec := corpus.Spec{NumChunks: w.chunks, Dim: w.dim, NumTopics: w.topics, Seed: corpusSeed}
	c, err := corpus.Generate(spec)
	if err != nil {
		return nil, err
	}
	s.corpus = c
	s.queries = c.Queries(4096, seed).Vectors
	t := lap(&s.phases.generate, start)

	// One k-means seed: the default sweep of eight multiplies the
	// clustering time and the shard balance it buys is not what is measured.
	built, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: w.shards, QuantBits: 8, Seeds: []int64{1}})
	if err != nil {
		return nil, err
	}
	t = lap(&s.phases.build, t)

	if err := writeIndexDir(dir, spec, built); err != nil {
		return nil, err
	}
	s.phases.diskMB = dirMB(dir)
	t = lap(&s.phases.write, t)

	_, indexes, err := indexfile.ReadAll(dir)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if s.store, err = hermes.FromIndexes(indexes); err != nil {
		return nil, err
	}
	t = lap(&s.phases.load, t)

	if s.cluster, err = distsearch.LaunchLocal(s.store, nil); err != nil {
		return nil, err
	}
	if s.co, err = distsearch.Dial(s.cluster.Addrs(), 5*time.Second); err != nil {
		s.close()
		return nil, err
	}
	// Only SearchBatch reads the flag: batches ask the nodes for shared
	// multi-query cell scans, as the batcher's grouping intends.
	s.co.SetGrouped(true)
	t = lap(&s.phases.launch, t)

	for i := 0; i < warmupQueries; i++ {
		if _, err := s.co.Search(s.query(i), w.params); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}
	lap(&s.phases.warm, t)
	lap(&s.phases.total, start)
	return s, nil
}

func (s *system) query(i int) []float32 { return s.queries.Row(i % s.queries.Len()) }

func (s *system) close() {
	if s.co != nil {
		s.co.Close()
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
}

func writeIndexDir(dir string, spec corpus.Spec, st *hermes.Store) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, sh := range st.Shards {
		if err := indexfile.WriteIndex(filepath.Join(dir, indexfile.ShardFile(i)), sh.Index); err != nil {
			return err
		}
	}
	meta, err := json.Marshal(indexfile.Meta{Type: "hermes", Dim: spec.Dim, Shards: len(st.Shards), Embedding: "topic", Corpus: spec})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644)
}

func dirMB(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return float64(total) / (1 << 20)
}
