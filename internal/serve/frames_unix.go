//go:build unix

package serve

import (
	"syscall"
	"unsafe"
)

// mapFrame maps a private anonymous region for words float64s. The memory
// is outside the Go heap: the garbage collector neither scans nor counts
// it, and the race detector does not see accesses to it.
func mapFrame(words int) ([]float64, error) {
	b, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), words), nil
}

// unmapFrame releases a frame from mapFrame. The byte view has the mapping's
// start and length, which is how syscall.Munmap finds it.
func unmapFrame(f []float64) {
	if err := syscall.Munmap(wordBytes(f)); err != nil {
		panic("serve: unmapping an operand frame: " + err.Error())
	}
}
