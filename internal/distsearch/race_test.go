//go:build race

package distsearch

// raceEnabled lets allocation-count tests skip under the race detector,
// which deliberately drops sync.Pool puts and so re-allocates pooled scratch.
const raceEnabled = true
