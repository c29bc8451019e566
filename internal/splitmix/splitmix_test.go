package splitmix

import "testing"

// TestKnownValues pins Next to the reference splitmix64 sequence (seed 0:
// the first outputs of Vigna's splitmix64.c) and Mix to its definition as
// the finalizer of seed·golden + stream.
func TestKnownValues(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var x uint64
	for i, w := range want {
		if got := Next(x); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
		x += golden
	}
	for _, c := range []struct{ seed, stream int64 }{{0, 0}, {1, 2}, {-7, 99}, {1 << 40, -1}} {
		if got, want := Mix(c.seed, c.stream), int64(Next(uint64(c.seed)*golden+uint64(c.stream)-golden)); got != want {
			t.Errorf("Mix(%d, %d) = %d, want %d", c.seed, c.stream, got, want)
		}
	}
}
