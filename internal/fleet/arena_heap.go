//go:build !unix

package fleet

// mapChunk is an empty arena chunk of capacity n on the Go heap, where the
// platform has no anonymous mmap: the chunk holds no pointer, so it is not
// scanned, but it counts toward the collector's heap goal.
func mapChunk(n int) []byte { return make([]byte, 0, n) }

// unmapChunk leaves chunk c to the collector.
func unmapChunk([]byte) {}
