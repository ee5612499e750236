// Command hermes-coordinator drives a set of hermes-node shard servers: it
// scatters the sample phase to every node, ranks nodes by their sampled
// document, deep-searches the top clusters, and prints merged results with
// per-phase latencies — the online half of the distributed architecture.
//
// Usage:
//
//	hermes-coordinator -nodes 127.0.0.1:7001,127.0.0.1:7002 -index ./idx -queries 5
//	hermes-coordinator -nodes ... -index ./idx -queries 5 -all   # naive search-all baseline
//	hermes-coordinator -nodes ... -index ./idx -stats            # per-node serving table + federated cluster totals
//	hermes-coordinator -nodes ... -index ./idx -stats -watch 2s  # live load + modeled energy + SLO burn table
//	hermes-coordinator -nodes ... -index ./idx -trace -queries 3 # per-query cross-node waterfall
//
// With -admin the coordinator also serves the cluster observability plane:
// /metrics/cluster (federated metrics merged from every node, ?node=<shard>
// for one node's breakdown), /debug/slo (error-budget burn rates for the
// -slo objectives), and /debug/events (the structured event log ring).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/corpus"
	"repro/internal/distsearch"
	"repro/internal/evlog"
	"repro/internal/hermes"
	"repro/internal/hwmodel"
	"repro/internal/rerank"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/pkg/indexfile"
)

func main() {
	var (
		nodesFlag = flag.String("nodes", "", "comma-separated shard node addresses")
		dir       = flag.String("index", "hermes-index", "index directory (for the corpus spec)")
		queries   = flag.Int("queries", 5, "number of queries to run")
		qseed     = flag.Int64("qseed", 7, "query generation seed")
		k         = flag.Int("k", 5, "documents to retrieve")
		deep      = flag.Int("deep", 3, "clusters to deep-search")
		all       = flag.Bool("all", false, "search every node (naive baseline)")
		timeout   = flag.Duration("timeout", 5*time.Second, "dial timeout")
		rtTimeout = flag.Duration("rt-timeout", 0, "per-round-trip I/O deadline; 0 leaves round-trips unbounded")
		admin     = flag.String("admin", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :8081)")
		stats     = flag.Bool("stats", false, "print the per-node serving table (live Fig. 13 view) and exit")
		trace     = flag.Bool("trace", false, "trace each query and print its cross-node span waterfall")
		cost      = flag.Bool("cost", false, "print each query's cost-ledger table (cells, exclusive/amortized codes, attributed scan time, wire bytes)")
		watch     = flag.Duration("watch", 0, "with -stats: poll the cluster at this interval, printing load shares and modeled DVFS energy until interrupted")
		platform  = flag.String("platform", "gold6448y", "CPU platform for the energy model (gold6448y|platinum8380|silver4316|neoverse, or a full hwmodel name)")
		slowMS    = flag.Int("slow-ms", 100, "flight-recorder pin threshold in milliseconds for /debug/queries (with -admin)")
		sloSpec   = flag.String("slo", "", `SLO objectives served at /debug/slo and exported as hermes_slo_* ("scatter=latency:50ms@0.99,avail=availability@0.999")`)
	)
	flag.Parse()

	if *nodesFlag == "" {
		fatal(fmt.Errorf("-nodes is required"))
	}
	addrs := strings.Split(*nodesFlag, ",")
	meta, err := indexfile.ReadMeta(*dir)
	if err != nil {
		fatal(err)
	}
	c, err := corpus.Generate(meta.Corpus)
	if err != nil {
		fatal(err)
	}
	store := corpus.NewChunkStore(c)
	tokensPerChunk := int64(corpus.DefaultTokensPerChunk)
	if meta.Corpus.TokensPerChunk > 0 {
		tokensPerChunk = int64(meta.Corpus.TokensPerChunk)
	}
	spec, err := resolvePlatform(*platform)
	if err != nil {
		fatal(err)
	}

	rec := telemetry.NewRecorder(256, time.Duration(*slowMS)*time.Millisecond)
	ev := evlog.New(evlog.Config{Capacity: 256})
	co, err := distsearch.DialOpts(addrs, distsearch.DialOptions{
		Timeout:          *timeout,
		RoundTripTimeout: *rtTimeout,
		Recorder:         rec,
		Events:           ev,
	})
	if err != nil {
		fatal(err)
	}
	defer co.Close()
	fmt.Printf("connected to %d nodes, %d vectors total, dim %d\n\n", co.Nodes(), co.TotalSize(), co.Dim())

	var engine *slo.Engine
	if *sloSpec != "" {
		objs, err := slo.ParseObjectives(*sloSpec)
		if err != nil {
			fatal(err)
		}
		if engine, err = co.NewSLOEngine(objs); err != nil {
			fatal(err)
		}
		telemetry.Default.RegisterCollector(engine.CollectInto())
		stopTicker := engine.StartTicker(10 * time.Second)
		defer stopTicker()
	}

	if *admin != "" {
		if err := co.EnableEnergyModel(spec, tokensPerChunk); err != nil {
			fatal(err)
		}
		mux := telemetry.NewAdminMuxOpts(telemetry.Default, rec)
		mux.HandleFunc("/metrics/cluster", co.ServeClusterMetrics)
		mux.HandleFunc("/debug/slo", engine.ServeSLO)
		mux.HandleFunc("/debug/events", ev.ServeEvents)
		srv, err := telemetry.ServeAdminMux(*admin, mux)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("admin endpoints on http://%s/metrics (cluster view at /metrics/cluster, flight recorder at /debug/queries, SLOs at /debug/slo, events at /debug/events)\n\n", srv.Addr())
	}
	if *stats {
		if *watch > 0 {
			watchStats(co, spec, tokensPerChunk, *watch, engine)
			return
		}
		printStats(co, spec)
		printClusterSummary(co)
		if engine != nil {
			engine.Tick()
			fmt.Println()
			slo.WriteBurnTable(os.Stdout, engine.Reports())
		}
		return
	}

	// -trace reranks the merged candidates against the raw corpus vectors so
	// the breakdown shows the full sample/rank/deep/rerank pipeline.
	var reranker *rerank.Reranker
	if *trace {
		reranker = rerank.NewFromMatrix(rerank.InnerProduct, c.Vectors)
	}

	params := hermes.DefaultParams()
	params.K = *k
	params.DeepClusters = *deep
	qs := c.Queries(*queries, *qseed)
	var costs []telemetry.QueryCost
	for i := 0; i < qs.Vectors.Len(); i++ {
		var res *distsearch.Result
		var tr *telemetry.Trace
		switch {
		case *all:
			res, err = co.SearchAll(qs.Vectors.Row(i), params)
		case *trace:
			tr = telemetry.NewTrace()
			res, err = co.SearchTraced(qs.Vectors.Row(i), params, tr)
			if err == nil {
				endRerank := tr.StartSpan("rerank")
				res.Neighbors = reranker.Rerank(qs.Vectors.Row(i), res.Neighbors)
				endRerank()
			}
		default:
			res, err = co.Search(qs.Vectors.Row(i), params)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("query %d (topic %d): sample %v, deep %v on nodes %v\n",
			i, qs.Topics[i], res.SampleLatency, res.DeepLatency, res.DeepNodes)
		if *cost {
			costs = append(costs, res.Cost)
		}
		if tr != nil {
			fmt.Printf("  %s\n", tr.Breakdown())
			for _, line := range strings.Split(tr.Waterfall(), "\n") {
				fmt.Printf("  %s\n", line)
			}
		}
		for rank, n := range res.Neighbors {
			txt, err := store.Get(n.ID)
			if err != nil {
				fatal(err)
			}
			if len(txt) > 60 {
				txt = txt[:60] + "..."
			}
			fmt.Printf("  %d. chunk %-6d d=%.4f %s\n", rank+1, n.ID, n.Score, txt)
		}
		fmt.Println()
	}
	if *cost {
		printCostTable(costs)
	}
}

// printCostTable renders the -cost view: one ledger row per query plus exact
// column totals. The scan column carries attributed time only when the run
// was traced (-trace); untraced queries never read the scan clock.
func printCostTable(costs []telemetry.QueryCost) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "query\tcells\tshared\tcodes_excl\tcodes_amort\tcodes\tscan\twire\t")
	var total telemetry.QueryCost
	for i, c := range costs {
		total.Add(c)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%v\t%dB\t\n",
			i, c.Cells, c.SharedCells, c.CodesExclusive, c.CodesAmortized,
			c.Codes(), time.Duration(c.ScanNanos), c.WireBytes)
	}
	fmt.Fprintf(w, "total\t%d\t%d\t%d\t%d\t%d\t%v\t%dB\t\n",
		total.Cells, total.SharedCells, total.CodesExclusive, total.CodesAmortized,
		total.Codes(), time.Duration(total.ScanNanos), total.WireBytes)
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

// resolvePlatform maps short CLI aliases to hwmodel specs, falling back to
// the full platform-name lookup.
func resolvePlatform(name string) (hwmodel.CPUSpec, error) {
	switch strings.ToLower(name) {
	case "gold6448y", "gold":
		return hwmodel.XeonGold6448Y, nil
	case "platinum8380", "platinum":
		return hwmodel.XeonPlatinum8380, nil
	case "silver4316", "silver":
		return hwmodel.XeonSilver4316, nil
	case "neoverse", "neoversen1", "n1":
		return hwmodel.NeoverseN1, nil
	}
	return hwmodel.PlatformByName(name)
}

// printStats renders each node's serving counters, handling-time quantiles,
// its share of the cluster's deep-search load, and the static DVFS estimate
// for that share — the live per-node view of the paper's Fig. 13 access
// imbalance with Fig. 21's energy angle attached.
func printStats(co *distsearch.Coordinator, spec hwmodel.CPUSpec) {
	stats, err := co.Stats()
	if err != nil {
		fatal(err)
	}
	var totalDeep int64
	for _, ns := range stats {
		totalDeep += ns.DeepServed
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "shard\tvectors\tquantizer\tsample\tdeep\tshare\tghz(model)\twatts(model)\tmutations\ttombstones\tsample_p95\tdeep_p95\tscan_p95\ttraced")
	for _, ns := range stats {
		sampleP95 := nodeSeconds(ns, "sample")
		deepP95 := nodeSeconds(ns, "deep")
		quantizer, scanP95 := nodeScanP95(ns)
		traced := ns.Telemetry[fmt.Sprintf(`hermes_node_traced_requests_total{shard="%d"}`, ns.ShardID)]
		share := 0.0
		if totalDeep > 0 {
			share = float64(ns.DeepServed) / float64(totalDeep)
		}
		ghz, watts := modelForShare(spec, share, len(stats))
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%.1f%%\t%.2f\t%.0f\t%d\t%d\t%v\t%v\t%v\t%.0f\n",
			ns.ShardID, ns.Size, quantizer, ns.SampleServed, ns.DeepServed, 100*share, ghz, watts,
			ns.MutationsServed, ns.Tombstones, sampleP95, deepP95, scanP95, traced)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

// printClusterSummary renders the federated headline series from the
// /metrics/cluster merge: cluster-wide query/request/error totals plus which
// shards contributed, so -stats shows the same truth the scrape endpoint
// serves. Shards running a pre-federation release are listed, not fatal.
func printClusterSummary(co *distsearch.Coordinator) {
	view := co.ClusterMetrics()
	flat := telemetry.FlattenFamilies(view.Merged)
	var nodeReqs, nodeSecs float64
	for key, v := range flat {
		if strings.HasPrefix(key, "hermes_node_requests_total{") {
			nodeReqs += v
		}
		if strings.HasPrefix(key, "hermes_node_request_seconds{") && strings.HasSuffix(key, ":sum") {
			nodeSecs += v
		}
	}
	fmt.Printf("\ncluster (federated from %d node(s)): queries=%.0f node_requests=%.0f node_busy=%.3fs errors=%.0f deadline_hits=%.0f\n",
		len(view.Nodes),
		flat["hermes_coordinator_queries_total"],
		nodeReqs, nodeSecs,
		flat["hermes_distsearch_errors_total"],
		flat["hermes_distsearch_deadline_hits_total"])
	if len(view.Missing) > 0 {
		fmt.Printf("  shards not contributing metrics (unreachable): %v\n", view.Missing)
	}
}

// modelForShare is the static one-shot DVFS estimate: a node carrying its
// fair share (1/n) of the deep load runs at base frequency; relative
// over/under-load scales it, clamped to the platform's DVFS range, and power
// follows the platform's f-V curve. The -watch loop replaces this with the
// real windowed model driven by observed load deltas.
func modelForShare(spec hwmodel.CPUSpec, share float64, n int) (ghz, watts float64) {
	rel := share * float64(n)
	ghz = spec.BaseGHz * rel
	if ghz < spec.MinGHz {
		ghz = spec.MinGHz
	}
	if ghz > spec.MaxGHz {
		ghz = spec.MaxGHz
	}
	if share == 0 {
		return spec.MinGHz, spec.IdlePower()
	}
	return ghz, spec.Power(ghz)
}

// watchStats polls the cluster until interrupted, feeding each node's
// observed deep-search load through the windowed DVFS energy model — real
// load deltas over real wall windows, so the joules column is the live
// Fig. 21 account.
func watchStats(co *distsearch.Coordinator, spec hwmodel.CPUSpec, tokensPerChunk int64, interval time.Duration, engine *slo.Engine) {
	model, err := hwmodel.NewEnergyModel(spec)
	if err != nil {
		fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	fmt.Printf("watching %d nodes every %v on %s (interrupt to stop)\n", co.Nodes(), interval, spec.Name)
	last := make(map[int]int64)
	lastAt := time.Now()
	for {
		select {
		case <-sig:
			fmt.Println("\ninterrupted")
			return
		case t := <-ticker.C:
			stats, err := co.Stats()
			if err != nil {
				fatal(err)
			}
			window := t.Sub(lastAt)
			lastAt = t
			var totalDelta int64
			deltas := make(map[int]int64, len(stats))
			for _, ns := range stats {
				d := ns.DeepServed - last[ns.ShardID]
				last[ns.ShardID] = ns.DeepServed
				deltas[ns.ShardID] = d
				totalDelta += d
			}
			w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintf(w, "%s  window=%v  deep=%d\n", t.Format("15:04:05"), window.Round(time.Millisecond), totalDelta)
			fmt.Fprintln(w, "shard\tdeep_total\tΔdeep\tshare\tghz\twatts\tjoules")
			for _, ns := range stats {
				d := deltas[ns.ShardID]
				share := 0.0
				if totalDelta > 0 {
					share = float64(d) / float64(totalDelta)
				}
				ne := model.Advance(ns.ShardID, int64(ns.Size)*tokensPerChunk, d, window)
				fmt.Fprintf(w, "%d\t%d\t%d\t%.1f%%\t%.2f\t%.0f\t%.1f\n",
					ns.ShardID, ns.DeepServed, d, 100*share, ne.GHz, ne.Watts, ne.Joules)
			}
			if err := w.Flush(); err != nil {
				fatal(err)
			}
			if engine != nil {
				engine.Tick()
				slo.WriteBurnTable(os.Stdout, engine.Reports())
			}
			fmt.Println()
		}
	}
}

// nodeSeconds extracts a node's p95 handling time for op from its telemetry
// snapshot; zero renders as 0s for nodes that have not served the op yet.
func nodeSeconds(ns distsearch.NodeStats, op string) time.Duration {
	key := fmt.Sprintf(`hermes_node_request_seconds{op="%s",shard="%d"}:p95`, op, ns.ShardID)
	return time.Duration(ns.Telemetry[key] * float64(time.Second))
}

// nodeScanP95 extracts the node's per-quantizer index-scan p95. The series is
// labeled with the quantizer kind, which the coordinator does not know ahead
// of time, so it matches the key by prefix and shard label and recovers the
// quantizer name from the label block.
func nodeScanP95(ns distsearch.NodeStats) (string, time.Duration) {
	const prefix = `hermes_node_scan_seconds{`
	shardLabel := fmt.Sprintf(`shard="%d"`, ns.ShardID)
	for key, v := range ns.Telemetry {
		if !strings.HasPrefix(key, prefix) || !strings.HasSuffix(key, ":p95") {
			continue
		}
		labels := strings.TrimSuffix(strings.TrimPrefix(key, prefix), "}:p95")
		if !strings.Contains(labels, shardLabel) {
			continue
		}
		quantizer := "?"
		if i := strings.Index(labels, `quantizer="`); i >= 0 {
			rest := labels[i+len(`quantizer="`):]
			if j := strings.IndexByte(rest, '"'); j >= 0 {
				quantizer = rest[:j]
			}
		}
		return quantizer, time.Duration(v * float64(time.Second))
	}
	return "?", 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hermes-coordinator:", err)
	os.Exit(1)
}
