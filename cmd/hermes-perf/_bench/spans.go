package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Start and End are nanoseconds since the
// recorder's epoch; Parent is the ID of the span that caused it (-1 for a
// root) and Query ties together the spans of one request.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. The traced run is the
// only user; end-to-end timings are measured with no recorder in the path.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// current is the (span ID, query ID) the counting proxies attribute
	// their exchange spans to: the one request in flight in the sequential
	// traced phases. Packed as id<<32 | query; -1 when nothing is in flight.
	current atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.current.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a finished span and returns its ID.
func (r *recorder) add(name string, parent, query int, start, end int64) int {
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Query: query, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// begin opens a span; the returned ID is valid as a parent immediately and
// end closes it.
func (r *recorder) begin(name string, parent, query int) int {
	return r.add(name, parent, query, r.now(), -1)
}

func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// setCurrent names the span that proxy exchanges started from now on belong
// to; clearCurrent detaches them again.
func (r *recorder) setCurrent(id, query int) { r.current.Store(int64(id)<<32 | int64(uint32(query))) }
func (r *recorder) clearCurrent()            { r.current.Store(-1) }

func (r *recorder) currentSpan() (id, query int) {
	c := r.current.Load()
	if c < 0 {
		return -1, -1
	}
	return int(c >> 32), int(uint32(c))
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeJSON(path string) error {
	raw, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (children clipped to the parent,
// overlapping siblings counted once). Spans never closed are skipped.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	reach := lo
	for _, k := range kids {
		a, b := max(k.Start, reach), min(k.End, hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}

func (s span) duration() int64 { return s.End - s.Start }

// meanUS averages of(s), in microseconds, over the closed spans called name.
func meanUS(spans []span, name string, of func(span) int64) float64 {
	var sum int64
	var n int
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start {
			sum += of(s)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}
