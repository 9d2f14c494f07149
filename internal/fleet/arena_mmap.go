//go:build unix

package fleet

import "syscall"

// mapChunk is an empty arena chunk of capacity n in anonymous private
// memory: the garbage collector neither scans it nor counts it toward its
// heap goal, so a node's sealed records cost their bytes and no headroom.
func mapChunk(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("fleet: mapping an arena chunk: " + err.Error())
	}
	return b[:0]
}

// unmapChunk returns chunk c, as mapChunk made it, to the system.
func unmapChunk(c []byte) {
	if err := syscall.Munmap(c[:cap(c)]); err != nil {
		panic("fleet: unmapping an arena chunk: " + err.Error())
	}
}
