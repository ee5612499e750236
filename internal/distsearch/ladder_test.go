package distsearch

// The benchmark ladder's exact counts as a tier-1 golden. Every rung of
// hermes-perf's ladder that is a count rather than a time is deterministic:
// exchanges per query by op, request and response bytes, codes scanned,
// cells probed and codes attributed. TestLadderCounts drives two small fixed
// clusters at the wire_bound and scan_bound parameters and compares every
// per-query count with testdata/ladder_counts.golden, so a refactor that
// adds an exchange, a byte or a scanned code fails here instead of in a
// benchmark run. A change that moves a count on purpose regenerates the file
// and says why:
//
//	go test ./internal/distsearch -run TestLadderCounts -update-ladder

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/hermes"
	"repro/internal/telemetry"
)

var updateLadder = flag.Bool("update-ladder", false, "rewrite testdata/ladder_counts.golden from this run")

const ladderGolden = "testdata/ladder_counts.golden"

// ladderCase is one fixed cluster: the parameters of a hermes-perf workload
// over a corpus small enough to build and serve in about a second.
type ladderCase struct {
	name   string
	spec   corpus.Spec
	shards int
	params hermes.Params
}

var ladderCases = []ladderCase{
	{"wire_bound", corpus.Spec{NumChunks: 4000, Dim: 32, NumTopics: 16, Seed: 1}, 10,
		hermes.Params{K: 5, SampleNProbe: 4, DeepNProbe: 16, DeepClusters: 3}},
	{"scan_bound", corpus.Spec{NumChunks: 3000, Dim: 128, NumTopics: 16, Seed: 1}, 4,
		hermes.DefaultParams()},
}

const (
	ladderQueries = 200
	ladderBatch   = 8
)

// ladderMeter reads the coordinator's per-op exchange and per-node byte
// counters off its private registry.
type ladderMeter struct {
	ops        map[Op]*telemetry.Counter
	sent, recv []*telemetry.Counter
}

func newLadderMeter(reg *telemetry.Registry, nodes int) *ladderMeter {
	m := &ladderMeter{ops: map[Op]*telemetry.Counter{}}
	for _, op := range []Op{OpSample, OpDeep, OpSampleBatch, OpDeepBatch} {
		m.ops[op] = reg.Counter("hermes_distsearch_requests_total", "round-trips issued by op", "op", opName(op))
	}
	for i := 0; i < nodes; i++ {
		node := strconv.Itoa(i)
		m.sent = append(m.sent, reg.Counter("hermes_distsearch_bytes_sent_total", "request bytes sent per node", "node", node))
		m.recv = append(m.recv, reg.Counter("hermes_distsearch_bytes_recv_total", "response bytes received per node", "node", node))
	}
	return m
}

// ladderReading is a snapshot of the meter's counters.
type ladderReading struct {
	ops        map[Op]int64
	sent, recv int64
}

func (m *ladderMeter) read() ladderReading {
	r := ladderReading{ops: map[Op]int64{}}
	for op, c := range m.ops {
		r.ops[op] = c.Value()
	}
	for i := range m.sent {
		r.sent += m.sent[i].Value()
		r.recv += m.recv[i].Value()
	}
	return r
}

// ladderRecord accumulates one value per query (or per batch) under each
// rung name, in first-use order.
type ladderRecord struct {
	keys []string
	vals map[string][]int64
}

func (r *ladderRecord) add(key string, v int64) {
	if r.vals == nil {
		r.vals = map[string][]int64{}
	}
	if _, ok := r.vals[key]; !ok {
		r.keys = append(r.keys, key)
	}
	r.vals[key] = append(r.vals[key], v)
}

func (r *ladderRecord) write(b *bytes.Buffer, section string) {
	for _, k := range r.keys {
		fmt.Fprintf(b, "%s %s", section, k)
		for _, v := range r.vals[k] {
			fmt.Fprintf(b, " %d", v)
		}
		b.WriteByte('\n')
	}
}

// TestLadderCounts runs 200 seeded queries through Coordinator.Search and,
// in batches of 8, through grouped SearchBatch on each ladder cluster. Every
// answer must equal Store.Search's on the same indexes, and every count must
// equal the golden's. The clock seam is frozen while the cluster serves, so
// each response's ServerNanos is 0 and its varint is one byte wide: response
// bytes are then as exact as request bytes.
func TestLadderCounts(t *testing.T) {
	var out bytes.Buffer
	out.WriteString("# TestLadderCounts: exact ladder counts, one value per query (search)\n")
	out.WriteString("# or per batch of 8 (grouped_batch exchanges, bytes and codes scanned).\n")
	for _, lc := range ladderCases {
		search, batch := runLadderCase(t, lc)
		search.write(&out, lc.name+"/search")
		batch.write(&out, lc.name+"/grouped_batch")
	}
	if *updateLadder {
		if err := os.WriteFile(ladderGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(ladderGolden))
	if err != nil {
		t.Fatalf("%v (regenerate with -update-ladder)", err)
	}
	if bytes.Equal(want, out.Bytes()) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("ladder counts moved at line %d:\n got  %.300s\n want %.300s", i+1, g, e)
		}
	}
}

func runLadderCase(t *testing.T, lc ladderCase) (search, batch ladderRecord) {
	t.Helper()
	c, err := corpus.Generate(lc.spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := hermes.Build(c.Vectors, hermes.BuildOptions{NumShards: lc.shards, QuantBits: 8, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	qs := c.Queries(ladderQueries, 7).Vectors

	frozen := time.Now()
	orig := now
	now = func() time.Time { return frozen }
	defer func() { now = orig }()
	cl, err := LaunchLocal(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reg := telemetry.NewRegistry()
	co, err := DialOpts(cl.Addrs(), DialOptions{Timeout: 5 * time.Second, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	m := newLadderMeter(reg, lc.shards)

	for qi := 0; qi < qs.Len(); qi++ {
		q := qs.Row(qi)
		before := m.read()
		res, scanned, err := co.searchTraced(q, lc.params, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := m.read()
		if want, _ := st.Search(q, lc.params); !reflect.DeepEqual(res.Neighbors, want) {
			t.Fatalf("%s query %d: coordinator %v != store %v", lc.name, qi, res.Neighbors, want)
		}
		sample := after.ops[OpSample] - before.ops[OpSample]
		deep := after.ops[OpDeep] - before.ops[OpDeep]
		if lc.name == "wire_bound" && sample+deep != 13 {
			t.Fatalf("wire_bound query %d made %d exchanges, want 13", qi, sample+deep)
		}
		search.add("exchanges_per_query", sample+deep)
		search.add("exchanges_per_query.sample", sample)
		search.add("exchanges_per_query.deep", deep)
		search.add("wire_bytes_per_query.request", after.sent-before.sent)
		search.add("wire_bytes_per_query.response", after.recv-before.recv)
		search.add("codes_scanned_per_query", scanned)
		search.add("cells_probed_per_query", res.Cost.Cells)
		search.add("codes_attributed_per_query", res.Cost.Codes())
	}

	co.SetGrouped(true)
	for b0 := 0; b0 < qs.Len(); b0 += ladderBatch {
		queries := make([][]float32, 0, ladderBatch)
		for qi := b0; qi < b0+ladderBatch && qi < qs.Len(); qi++ {
			queries = append(queries, qs.Row(qi))
		}
		before := m.read()
		res, err := co.SearchBatch(queries, lc.params)
		if err != nil {
			t.Fatal(err)
		}
		after := m.read()
		for i, q := range queries {
			if want, _ := st.Search(q, lc.params); !reflect.DeepEqual(res.Results[i], want) {
				t.Fatalf("%s batch query %d: coordinator %v != store %v", lc.name, b0+i, res.Results[i], want)
			}
			batch.add("cells_probed_per_query", res.Costs[i].Cells)
			batch.add("codes_attributed_per_query", res.Costs[i].Codes())
		}
		sample := after.ops[OpSampleBatch] - before.ops[OpSampleBatch]
		deep := after.ops[OpDeepBatch] - before.ops[OpDeepBatch]
		batch.add("exchanges_per_query", sample+deep)
		batch.add("exchanges_per_query.sample", sample)
		batch.add("exchanges_per_query.deep", deep)
		batch.add("wire_bytes_per_query.request", after.sent-before.sent)
		batch.add("wire_bytes_per_query.response", after.recv-before.recv)
		batch.add("codes_scanned_per_query", res.Total.Codes())
	}
	return search, batch
}
