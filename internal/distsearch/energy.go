package distsearch

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/hwmodel"
	"repro/internal/telemetry"
)

// EnableEnergyModel attaches the paper's DVFS energy account (Section 4.2,
// Fig. 21) to the coordinator as live /metrics series: a scrape-time
// collector feeds each node's observed deep-search load since the previous
// scrape through hwmodel.FrequencyForLatency — the lowest frequency that
// clears that load within the scrape window — and charges
// hwmodel.EnergyInWindow at it, exporting per node:
//
//	hermes_energy_model_ghz{node}    modeled DVFS operating frequency
//	hermes_energy_model_watts{node}  modeled average package power over the window
//	hermes_energy_model_joules{node} modeled cumulative energy (monotonic)
//
// tokensPerVector converts each shard's vector count into the token count
// the calibrated model is parameterized by (a corpus chunk is a fixed token
// span). The mapping assumes deep searches dominate node compute (sample
// searches are ~nProbe/16th of the work) and that load between scrapes is
// uniform within the window. Call once, before serving; the collector runs
// on every /metrics render or Snapshot until Close.
func (co *Coordinator) EnableEnergyModel(spec hwmodel.CPUSpec, tokensPerVector int64) error {
	if tokensPerVector <= 0 {
		return fmt.Errorf("distsearch: EnableEnergyModel: tokensPerVector must be positive, got %d", tokensPerVector)
	}
	model, err := hwmodel.NewEnergyModel(spec)
	if err != nil {
		return err
	}
	ec := &energyCollector{
		co:           co,
		model:        model,
		tokensPerVec: tokensPerVector,
		lastLoad:     make([]int64, len(co.nodes)),
		lastAt:       now(),
		ghz:          make([]*telemetry.Gauge, len(co.nodes)),
		watts:        make([]*telemetry.Gauge, len(co.nodes)),
		joules:       make([]*telemetry.Gauge, len(co.nodes)),
	}
	reg := co.m.reg
	for i, n := range co.nodes {
		node := strconv.Itoa(n.shardID)
		//lint:ignore metricname ghz is the series' actual physical unit; seconds/bytes do not apply
		ec.ghz[i] = reg.Gauge("hermes_energy_model_ghz",
			"modeled DVFS frequency per node given its observed deep-search load ("+spec.Name+")", "node", node)
		//lint:ignore metricname watts is the series' actual physical unit; seconds/bytes do not apply
		ec.watts[i] = reg.Gauge("hermes_energy_model_watts",
			"modeled average package power per node over the last scrape window ("+spec.Name+")", "node", node)
		//lint:ignore metricname joules is the series' actual physical unit; seconds/bytes do not apply
		ec.joules[i] = reg.Gauge("hermes_energy_model_joules",
			"modeled cumulative package energy per node since the model was enabled ("+spec.Name+")", "node", node)
	}
	//lint:ignore chanbound set-up wiring: one entry per collector registered for this coordinator, emptied by Close, never per request
	co.release = append(co.release, reg.RegisterCollector(ec.collect))
	return nil
}

// energyCollector advances the DVFS model by one window per scrape.
type energyCollector struct {
	co           *Coordinator
	model        *hwmodel.EnergyModel
	tokensPerVec int64

	mu       sync.Mutex
	lastLoad []int64
	lastAt   time.Time

	ghz, watts, joules []*telemetry.Gauge
}

func (ec *energyCollector) collect(*telemetry.Registry) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	t := now()
	window := t.Sub(ec.lastAt)
	if window <= 0 {
		return
	}
	ec.lastAt = t
	for i, n := range ec.co.nodes {
		load := n.deepLoad.Load()
		delta := load - ec.lastLoad[i]
		ec.lastLoad[i] = load
		ne := ec.model.Advance(n.shardID, int64(n.size)*ec.tokensPerVec, delta, window)
		ec.ghz[i].Set(ne.GHz)
		ec.watts[i].Set(ne.Watts)
		ec.joules[i].Set(ne.Joules)
	}
}
