//go:build !amd64

package quant

// No assembly kernels on this architecture; the batch scans fall back to the
// pure-Go multi-lane loops.
const (
	sq8UseAsm = false
	pqUseAsm  = false
)

// sq8BatchAsm is never called when sq8UseAsm is false.
func sq8BatchAsm(codes []byte, qm, scale []float32, n int, out []float32) {
	panic("quant: sq8BatchAsm called without assembly support")
}

// pqScanAsm is never called when pqUseAsm is false.
func pqScanAsm(codes []byte, tables [][256]float32, n int, out []float32) {
	panic("quant: pqScanAsm called without assembly support")
}
