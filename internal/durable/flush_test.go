package durable

import (
	"fmt"
	"testing"
)

// TestRotationSyncsItsDirectory holds a rotation to what opening the WAL
// does: under always and group the new segment's directory entry is synced
// before any record in it can be acked, since fsync of a file does not make
// its entry durable. Under off nothing is synced.
func TestRotationSyncsItsDirectory(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncGroup, SyncOff} {
		t.Run(string(mode), func(t *testing.T) {
			dir := t.TempDir()
			w, err := openWAL(dir, mode, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if err := w.waitDurable(w.append([]byte("one"))); err != nil {
				t.Fatal(err)
			}
			var synced []string
			sync := fsyncDir
			fsyncDir = func(d string) error {
				synced = append(synced, d)
				return sync(d)
			}
			defer func() { fsyncDir = sync }()
			if _, err := w.rotate(); err != nil {
				t.Fatal(err)
			}
			want := 1
			if mode == SyncOff {
				want = 0
			}
			if len(synced) != want || want == 1 && synced[0] != dir {
				t.Fatalf("rotation synced directories %q, want %d sync of %s", synced, want, dir)
			}
		})
	}
}

// TestZeroTailIsACleanEnd holds replay to the shape of a segment grown by
// zeros: the zeros after the last frame, however many, are a clean end and
// no damage, as is a segment that holds nothing but zeros.
func TestZeroTailIsACleanEnd(t *testing.T) {
	var frames []byte
	for i := 1; i <= 3; i++ {
		frames = appendFrame(frames, uint64(i), []byte(fmt.Sprintf("record-%d", i)))
	}
	for _, tail := range []int{0, 1, frameHeader - 1, frameHeader, frameHeader + 1, firstGrowth} {
		seg := append(append([]byte(nil), frames...), make([]byte, tail)...)
		n := 0
		if skipped := readFrames(seg, func(uint64, []byte) { n++ }); skipped != 0 || n != 3 {
			t.Errorf("%d zeros after 3 frames: read %d frames, %d skipped bytes; want 3 and 0", tail, n, skipped)
		}
	}
	n := 0
	if skipped := readFrames(make([]byte, firstGrowth), func(uint64, []byte) { n++ }); skipped != 0 || n != 0 {
		t.Errorf("all-zero segment: read %d frames, %d skipped bytes; want none", n, skipped)
	}
	// Garbage after the zeros is damage again: all of the unreadable tail.
	seg := append(append(append([]byte(nil), frames...), make([]byte, 64)...), 0xFF)
	if skipped := readFrames(seg, func(uint64, []byte) {}); skipped != 65 {
		t.Errorf("zeros then garbage: %d skipped bytes, want 65", skipped)
	}
}
