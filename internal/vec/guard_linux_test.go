//go:build linux

package vec

import (
	"math"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n float32s whose last byte is the last byte before a
// PROT_NONE page: any load past the slice faults instead of passing silently.
func guardedFloats(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	body := (n*4 + page - 1) / page * page
	if body == 0 {
		body = page
	}
	mem, err := syscall.Mmap(-1, 0, body+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[body:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[body-n*4])), n)
}

// Query, rows and output all end flush against a guard page; an over-read
// (or an over-write of out) is a SIGSEGV, not a silent pass.
func TestL2SquaredBatchNoOverRead(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, dim := range kernelDims() {
		for n := 0; n <= 9; n++ {
			q := guardedFloats(t, dim)
			data := guardedFloats(t, n*dim)
			out := guardedFloats(t, n)
			for i := range q {
				q[i] = float32(rng.NormFloat64())
			}
			for i := range data {
				data[i] = float32(rng.NormFloat64())
			}
			L2SquaredBatch(q, data, n, out)
			for i := 0; i < n; i++ {
				want := L2Squared(q, data[i*dim:(i+1)*dim])
				if math.Float32bits(out[i]) != math.Float32bits(want) {
					t.Fatalf("dim=%d n=%d row %d: %v != %v", dim, n, i, out[i], want)
				}
			}
		}
	}
}
