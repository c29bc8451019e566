// Package splitmix holds the repository's one deterministic PRNG step,
// splitmix64, and the seed/stream mixer built on its finalizer. Ring
// placement, fault injection, retry jitter, load generation, tracer seeds,
// ensemble sample streams and sweep job streams all derive from it, so their
// outputs depend only on their seeds.
package splitmix

// golden is the splitmix64 increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// Next is one splitmix64 step: it advances the state x by the golden-ratio
// increment and returns the mixed output. Callers chain it (x = Next(x)) or
// apply it to a seed combined with a counter.
func Next(x uint64) uint64 {
	return finalize(x + golden)
}

// Mix combines a seed and a stream discriminator with the splitmix64
// finalizer, so neighbouring seeds or streams yield uncorrelated values.
func Mix(seed, stream int64) int64 {
	return int64(finalize(uint64(seed)*golden + uint64(stream)))
}

// finalize is the splitmix64 output mixer.
func finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
