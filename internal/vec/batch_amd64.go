//go:build amd64

package vec

// l2SquaredBatch scores four contiguous rows per pass with one 4-lane SSE2
// accumulator per row, then a single-row loop for the last n%4 rows. SSE2 is
// part of the amd64 baseline, so there is nothing to detect. Preconditions
// (enforced by L2SquaredBatch): len(q) > 0, len(data) >= n*len(q),
// len(out) >= n. No load touches memory outside data[:n*len(q)], q or
// out[:n]. Implemented in batch_amd64.s.
//
//go:noescape
func l2SquaredBatch(q, data []float32, n int, out []float32)
