//go:build linux && amd64

package quant

import (
	"math"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guardedBytes returns n bytes whose last byte is the last byte before a
// PROT_NONE page: any load past the slice faults instead of passing silently.
func guardedBytes(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	body := (n + page - 1) / page * page
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
	return mem[body-n : body : body]
}

func guardedFloats(t *testing.T, n int) []float32 {
	b := guardedBytes(t, n*4)
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
}

// Codes, qm, scale and out all end flush against a guard page on both SQ8
// paths; an over-read or over-write is a SIGSEGV.
func TestSQ8AsmNoOverRead(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	withSQ8Paths(t, func(t *testing.T, path string) {
		for dim := 4; dim <= 68; dim += 4 {
			for n := 0; n <= 9; n++ {
				codes := guardedBytes(t, n*dim)
				qm, scale, out := guardedFloats(t, dim), guardedFloats(t, dim), guardedFloats(t, n)
				rng.Read(codes)
				for d := range qm {
					qm[d], scale[d] = float32(rng.NormFloat64()), rng.Float32()
				}
				sq8BatchAsm(codes, qm, scale, n, out)
				for i := 0; i < n; i++ {
					want := sq8Model(codes[i*dim:(i+1)*dim], qm, scale)
					if math.Float32bits(out[i]) != math.Float32bits(want) {
						t.Fatalf("%s dim=%d n=%d code %d: %v != %v", path, dim, n, i, out[i], want)
					}
				}
			}
		}
	})
}
