package distsearch

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/slo"
	"repro/internal/telemetry"
)

// ClusterView is the coordinator's federated metric snapshot: every
// reachable node's structured export merged into one family set, plus the
// per-node breakdowns the merge was built from.
type ClusterView struct {
	// Merged is the cluster-wide family set: node exports plus the
	// coordinator's own registry, merged per telemetry.MergeFamilies
	// (counters/gauges sum, histograms merge bucket-wise).
	Merged []telemetry.FamilySnapshot
	// Nodes holds each contributing node's unmerged export, shard-labeled.
	Nodes []NodeFamilies
	// Missing lists shard IDs that did not contribute because they were
	// unreachable at snapshot time. The merged view simply covers fewer
	// shards.
	Missing []int
}

// NodeFamilies is one node's contribution to a ClusterView.
type NodeFamilies struct {
	ShardID  int
	Families []telemetry.FamilySnapshot
}

// ClusterMetrics pulls every node's metric export over OpMetricsSnap in one
// wave, merges them with the coordinator's own registry, and returns the
// federated view. Federation is observability, not serving: a node that is
// currently unreachable lands in Missing instead of failing the snapshot,
// which degrades to a narrower view with no error.
func (co *Coordinator) ClusterMetrics() *ClusterView {
	calls := scatter(co.nodes, &Request{Op: OpMetricsSnap})
	view := &ClusterView{}
	exports := make([][]telemetry.FamilySnapshot, 0, len(co.nodes)+1)
	for i, n := range co.nodes {
		resp, err := n.recv(calls[i])
		if err != nil {
			view.Missing = append(view.Missing, n.shardID)
			continue
		}
		view.Nodes = append(view.Nodes, NodeFamilies{ShardID: n.shardID, Families: resp.Families})
		exports = append(exports, resp.Families)
	}
	// The coordinator's own registry joins the merge so the cluster view
	// spans both sides of the wire (scatter/gather phases and per-node
	// round-trips next to node-side scan times).
	exports = append(exports, co.m.reg.Export())
	view.Merged = telemetry.MergeFamilies(exports...)
	return view
}

// ClusterSnapshot flattens the merged cluster view into Snapshot-style
// keys — what hermes-coordinator -stats/-watch reads for its cluster table.
func (co *Coordinator) ClusterSnapshot() map[string]float64 {
	return telemetry.FlattenFamilies(co.ClusterMetrics().Merged)
}

// NewSLOEngine builds an slo.Engine whose objectives read this
// coordinator's serving metrics: a latency objective observes the sample
// (scatter) phase histogram — or the deep phase when the objective name
// contains "deep" — and an availability objective measures round-trips
// that did not fail out of all round-trips issued. This is the wiring
// behind `hermes-coordinator -slo`; callers with bespoke sources use the
// slo package directly.
func (co *Coordinator) NewSLOEngine(objs []slo.Objective) (*slo.Engine, error) {
	e := slo.NewEngine()
	for _, o := range objs {
		var src slo.SourceFunc
		switch o.Kind {
		case slo.KindLatency:
			h := co.m.phaseSample
			if strings.Contains(o.Name, "deep") {
				h = co.m.phaseDeep
			}
			src = slo.LatencySource(h, o.Threshold)
		case slo.KindAvailability:
			src = co.roundTripAvailability
		default:
			return nil, fmt.Errorf("distsearch: objective %q: unsupported kind", o.Name)
		}
		if err := e.AddObjective(o, src); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// roundTripAvailability counts round-trips that did not fail. Every error
// was an issued round-trip, so good never goes negative.
func (co *Coordinator) roundTripAvailability() (good, total int64) {
	for _, c := range co.m.byOp {
		total += c.Value()
	}
	return total - co.m.errors.Value(), total
}

// ServeClusterMetrics is the /metrics/cluster handler: the merged cluster
// families in Prometheus text exposition format, with shard coverage noted
// in leading comment lines. ?node=<shard> serves one node's unmerged
// export instead — the per-node breakdown behind the merge.
func (co *Coordinator) ServeClusterMetrics(w http.ResponseWriter, r *http.Request) {
	view := co.ClusterMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if nodeParam := r.URL.Query().Get("node"); nodeParam != "" {
		shard, err := strconv.Atoi(nodeParam)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad node %q", nodeParam), http.StatusBadRequest)
			return
		}
		for _, nf := range view.Nodes {
			if nf.ShardID == shard {
				fmt.Fprintf(w, "# node view: shard %d\n", shard)
				if err := telemetry.WriteFamiliesPrometheus(w, nf.Families); err != nil {
					fmt.Fprintf(w, "# render error: %v\n", err)
				}
				return
			}
		}
		http.Error(w, fmt.Sprintf("no metrics from shard %d", shard), http.StatusNotFound)
		return
	}
	shards := make([]string, 0, len(view.Nodes))
	for _, nf := range view.Nodes {
		shards = append(shards, strconv.Itoa(nf.ShardID))
	}
	fmt.Fprintf(w, "# cluster view: coordinator + %d node(s) [%s]\n",
		len(view.Nodes), strings.Join(shards, ","))
	if len(view.Missing) > 0 {
		missing := make([]string, 0, len(view.Missing))
		for _, s := range view.Missing {
			missing = append(missing, strconv.Itoa(s))
		}
		fmt.Fprintf(w, "# shards not contributing (unreachable): [%s]\n",
			strings.Join(missing, ","))
	}
	if err := telemetry.WriteFamiliesPrometheus(w, view.Merged); err != nil {
		fmt.Fprintf(w, "# render error: %v\n", err)
	}
}
