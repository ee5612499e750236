package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/vec"
)

// closedLoop runs clients goroutines that each send their next query when
// the previous one returns, until window has passed. A sample's offset is
// its completion time.
func closedLoop(s *system, clients int, window time.Duration) (samples []sample, failed int64) {
	perClient := make([][]sample, clients)
	fails := make([]int64, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]sample, 0, 1<<16)
			// Clients walk the query pool from different offsets so that
			// they do not send the same query at the same time.
			for i := c * s.queries.Len() / clients; ; i++ {
				t0 := time.Now()
				if t0.Sub(start) >= window {
					break
				}
				res, err := s.co.Search(s.query(i), s.w.params)
				t1 := time.Now()
				if err != nil || len(res.Neighbors) == 0 {
					fails[c]++
					continue
				}
				out = append(out, sample{at: t1.Sub(start), lat: t1.Sub(t0)})
			}
			perClient[c] = out
		}(c)
	}
	wg.Wait()
	for c := range perClient {
		samples = append(samples, perClient[c]...)
		failed += fails[c]
	}
	return samples, failed
}

// writer sends Add and Remove through the coordinator and keeps the ledger
// the correctness gate checks the nodes against.
type writer struct {
	s       *system
	rng     *rand.Rand
	centers *vec.Matrix // topic centres fresh vectors are drawn around
	spread  float64
	nextID  int64

	// victims are original chunk IDs in the order they will be removed;
	// victimVecs holds the vectors of the first few, for the gate.
	victims    []int64
	victimVecs [][]float32
	nextVictim int

	added   []addedDoc
	removed map[int64]bool
	live    int // documents the cluster should hold
	failed  int64
	// samples holds one entry per Add and the Remove that follows it, with
	// the mean of the two latencies: an Add is one round trip and a Remove
	// up to one per node, and the median of the two populations mixed would
	// sit on the edge between them and jump from run to run.
	samples []sample
	lastAdd time.Duration
}

type addedDoc struct {
	id  int64
	vec []float32
}

// newWriter must be called while s.corpus is still held.
func newWriter(s *system, seed int64) *writer {
	c := s.corpus
	w := &writer{
		s: s, rng: rand.New(rand.NewSource(seed)),
		centers: c.Centers, spread: c.Spec.TopicSpread,
		nextID: int64(c.Vectors.Len()), live: c.Vectors.Len(),
		removed: make(map[int64]bool),
	}
	for _, id := range w.rng.Perm(c.Vectors.Len()) {
		w.victims = append(w.victims, int64(id))
		if len(w.victimVecs) < gateQueries {
			w.victimVecs = append(w.victimVecs, vec.Copy(c.Vectors.Row(id)))
		}
	}
	return w
}

// add ingests a fresh vector drawn around a random topic centre.
func (w *writer) add() {
	v := vec.Copy(w.centers.Row(w.rng.Intn(w.centers.Len())))
	for d := range v {
		v[d] += float32(w.rng.NormFloat64() * w.spread)
	}
	id := w.nextID
	w.nextID++
	t0 := time.Now()
	_, err := w.s.co.Add(id, v)
	lat := time.Since(t0)
	if err != nil {
		w.failed++
		return
	}
	w.added = append(w.added, addedDoc{id, v})
	w.live++
	w.lastAdd = lat
}

func (w *writer) remove(id int64, at func() time.Duration) {
	t0 := time.Now()
	_, ok, err := w.s.co.Remove(id)
	lat := time.Since(t0)
	if err != nil || !ok {
		w.failed++
		return
	}
	w.removed[id] = true
	w.live--
	w.samples = append(w.samples, sample{at: at(), lat: (w.lastAdd + lat) / 2})
}

// runPaced alternates Add of a fresh vector and Remove of a random original
// document at rate operations per second for window, compacting every
// compactEvery. It is one client: a write that a compaction or a busy
// connection delays makes the following ones late, it does not pile them up.
func (w *writer) runPaced(start time.Time, window time.Duration, rate float64, compactEvery time.Duration) {
	period := time.Duration(float64(time.Second) / rate)
	since := func() time.Duration { return time.Since(start) }
	nextCompact := compactEvery
	for k := 0; ; k++ {
		due := time.Duration(k) * period
		if wait := due - since(); wait > 0 {
			time.Sleep(wait)
		}
		if since() >= window {
			return
		}
		if since() >= nextCompact {
			if err := w.s.co.Compact(); err != nil {
				w.failed++
			}
			nextCompact += compactEvery
		}
		if k%2 == 0 {
			w.add()
		} else if w.nextVictim < len(w.victims) {
			w.remove(w.victims[w.nextVictim], since)
			w.nextVictim++
		}
	}
}

// probe measures unloaded write latency on a workload that has no writer of
// its own: n times Add a fresh vector, then Remove it again. Sample offsets
// are spread evenly over window so the slices hold equal shares.
func (w *writer) probe(n int, window time.Duration) {
	for i := 0; i < n; i++ {
		at := func() time.Duration { return time.Duration(i) * window / time.Duration(n) }
		before := len(w.added)
		w.add()
		if len(w.added) > before {
			doc := w.added[len(w.added)-1]
			w.added = w.added[:before] // removed again below, so not live
			w.remove(doc.id, at)
		}
	}
}

// stepResult is one fixed-rate step of the open loop.
type stepResult struct {
	rate     float64
	dur      time.Duration
	samples  []sample        // offset = due time, latency = completion - due time
	lag      []time.Duration // how late each arrival was dispatched
	inflight []int64         // requests in flight at each dispatch
	sent     int64
	failed   int64 // errors, empty answers and refusals
}

// openLoop dispatches queries on a seeded Poisson schedule regardless of how
// fast they complete. One dispatcher sleeps until each arrival is due; every
// arrival runs search on its own goroutine. An arrival that finds
// maxInFlight requests in flight is refused and counts as failed.
func openLoop(search func(i int) error, rate float64, dur time.Duration, rng *rand.Rand) stepResult {
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if d := time.Duration(t * float64(time.Second)); d < dur {
			due = append(due, d)
		} else {
			break
		}
	}
	r := stepResult{rate: rate, dur: dur, sent: int64(len(due))}
	r.lag = make([]time.Duration, len(due))
	r.inflight = make([]int64, len(due))
	lat := make([]time.Duration, len(due))
	var inflight, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		r.lag[i] = time.Since(start) - d
		r.inflight[i] = inflight.Add(1)
		if r.inflight[i] > maxInFlight {
			inflight.Add(-1)
			failed.Add(1)
			lat[i] = -1
			continue
		}
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			err := search(i)
			lat[i] = time.Since(start) - d
			if err != nil {
				failed.Add(1)
				lat[i] = -1
			}
			inflight.Add(-1)
		}(i, d)
	}
	wg.Wait()
	r.failed = failed.Load()
	for i, l := range lat {
		if l >= 0 {
			r.samples = append(r.samples, sample{at: due[i], lat: l})
		}
	}
	return r
}

// meets reports whether the step held the latency limit with no growing
// backlog, and if not, why. A failed or refused request misses the limit.
// The p99 judged is the one reported: the median of the per-slice values,
// so that one stall of a few milliseconds does not decide a whole step.
func (r stepResult) meets(limit time.Duration) (bool, string) {
	if r.failed > 0 {
		return false, fmt.Sprintf("%d of %d requests failed or were refused", r.failed, r.sent)
	}
	if _, _, p99 := latencyMetrics(r.samples, r.dur, windowSlices); p99.Value > ms(limit) {
		return false, fmt.Sprintf("p99 %.2f ms over the %.0f ms limit", p99.Value, ms(limit))
	}
	// By Little's law a step inside its limit holds at most rate*limit
	// requests in flight; more than that and still climbing is a backlog.
	third := len(r.inflight) / 3
	if third > 0 {
		first, last := meanInt(r.inflight[:third]), meanInt(r.inflight[len(r.inflight)-third:])
		if last > r.rate*limit.Seconds() && last > 2*first {
			return false, fmt.Sprintf("backlog grew from %.0f to %.0f in flight", first, last)
		}
		// Medians: a generator that cannot keep up runs later and later,
		// while one host stall only makes a few arrivals late.
		lagFirst, lagLast := metrics.Summarize(r.lag[:third]).P50, metrics.Summarize(r.lag[len(r.lag)-third:]).P50
		if lagLast > limit && lagLast > 2*lagFirst {
			return false, fmt.Sprintf("generator lag grew from %.2f to %.2f ms", ms(lagFirst), ms(lagLast))
		}
	}
	return true, ""
}

func meanInt(v []int64) float64 {
	var sum int64
	for _, x := range v {
		sum += x
	}
	return float64(sum) / float64(len(v))
}
