// Package mix holds the repository's one integer hash finalizer, shared by
// the federation's rendezvous placement and the engine's per-job random
// streams.
package mix

// Fmix64 is the MurmurHash3 64-bit finalizer: a bijective avalanche mix.
// Inputs that differ in one bit give outputs that differ in about half their
// bits, so sequential keys (job IDs, seeds) map to unrelated values.
func Fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
