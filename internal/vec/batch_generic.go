//go:build !amd64

package vec

func l2SquaredBatch(q, data []float32, n int, out []float32) {
	l2SquaredBatchGo(q, data, n, out)
}
