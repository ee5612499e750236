package vec

import "fmt"

// L2SquaredBatch computes the squared Euclidean distance between q and each
// of the first n rows of data (row-major, stride len(q)), writing distances
// to out[:n]. It is the one float32 distance kernel: flat scans, coarse-cell
// selection, k-means assignment and the PQ table build all evaluate "one
// query against a contiguous matrix" through it. On amd64 it is an SSE2
// assembly loop (batch_amd64.s), elsewhere the Go loop below.
//
// Every path accumulates exactly like L2Squared — four lanes, the dim%4 tail
// into lane 0, reduced ((s0+s1)+s2)+s3, no fused multiply-add — so a row's
// distance is bit-identical to L2Squared(q, row) wherever the row sits in
// the batch (DESIGN.md §8).
func L2SquaredBatch(q, data []float32, n int, out []float32) {
	dim := len(q)
	if dim == 0 {
		panic("vec: L2SquaredBatch requires a non-empty query")
	}
	if len(data) < n*dim {
		panic(fmt.Sprintf("vec: L2SquaredBatch data length %d < %d rows x dim %d", len(data), n, dim))
	}
	if len(out) < n {
		panic(fmt.Sprintf("vec: L2SquaredBatch out length %d < n %d", len(out), n))
	}
	l2SquaredBatch(q, data, n, out)
}

// l2SquaredBatchGo is the portable kernel and the reference the assembly is
// tested against; it stays compiled on every architecture.
func l2SquaredBatchGo(q, data []float32, n int, out []float32) {
	dim := len(q)
	for i := 0; i < n; i++ {
		row := data[i*dim : i*dim+dim : i*dim+dim]
		var s0, s1, s2, s3 float32
		d := 0
		for ; d+4 <= dim; d += 4 {
			d0 := q[d] - row[d]
			d1 := q[d+1] - row[d+1]
			d2 := q[d+2] - row[d+2]
			d3 := q[d+3] - row[d+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; d < dim; d++ {
			dd := q[d] - row[d]
			s0 += dd * dd
		}
		out[i] = s0 + s1 + s2 + s3
	}
}
