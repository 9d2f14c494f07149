package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFrameRoundtrip pins the record framing: frames written by appendFrame
// come back byte-identical from readFrames, in order, with their LSNs.
func TestFrameRoundtrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("a"), []byte(""), []byte("some longer payload with bytes \x00\xff"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var buf []byte
	for i, p := range payloads {
		buf = appendFrame(buf, uint64(i+1), p)
	}
	var gotLSN []uint64
	var got [][]byte
	skipped := readFrames(buf, func(lsn uint64, payload []byte) {
		gotLSN = append(gotLSN, lsn)
		got = append(got, append([]byte(nil), payload...))
	})
	if skipped != 0 {
		t.Fatalf("clean buffer reported %d skipped bytes", skipped)
	}
	if len(got) != len(payloads) {
		t.Fatalf("read %d frames, wrote %d", len(got), len(payloads))
	}
	for i := range payloads {
		if gotLSN[i] != uint64(i+1) {
			t.Errorf("frame %d: lsn %d, want %d", i, gotLSN[i], i+1)
		}
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("frame %d: payload mismatch", i)
		}
	}
}

// TestTornTailEveryOffset is the byte-by-byte torn-tail property: a crash at
// EVERY offset inside the final record must yield exactly the preceding
// frames — never a panic, never a corrupt record surfaced. A segment written
// before segments were grown by zeros ends where the crash cut it; a
// pre-zeroed one keeps its size, and the crash leaves the frame's unwritten
// bytes zero.
func TestTornTailEveryOffset(t *testing.T) {
	var buf []byte
	const frames = 5
	for i := 1; i <= frames; i++ {
		buf = appendFrame(buf, uint64(i), []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{'x'}, 50*i))))
	}
	lastStart := 0
	readFrames(buf[:], func(lsn uint64, payload []byte) {
		if lsn == frames {
			return
		}
		lastStart += frameHeader + len(payload)
	})
	if lastStart <= 0 || lastStart >= len(buf) {
		t.Fatalf("bad last-frame offset %d (buf %d)", lastStart, len(buf))
	}
	for cut := lastStart; cut < len(buf); cut++ {
		n := 0
		skipped := readFrames(buf[:cut], func(lsn uint64, payload []byte) { n++ })
		if n != frames-1 {
			t.Fatalf("cut at %d: read %d frames, want %d", cut, n, frames-1)
		}
		if skipped != int64(cut-lastStart) {
			t.Fatalf("cut at %d: skipped %d bytes, want %d", cut, skipped, cut-lastStart)
		}
	}
	seg := append(append([]byte(nil), buf...), make([]byte, firstGrowth-len(buf))...)
	for cut := lastStart; cut < len(buf); cut++ {
		zeroed := append([]byte(nil), seg...)
		clear(zeroed[cut:len(buf)])
		n := 0
		skipped := readFrames(zeroed, func(lsn uint64, payload []byte) { n++ })
		if n != frames-1 {
			t.Fatalf("zeroed from %d: read %d frames, want %d", cut, n, frames-1)
		}
		// The torn frame counts the extent its written length field
		// declares (the whole frame once the field is in), never the zeros
		// the segment was grown by; a frame none of which was written is a
		// clean end.
		want := int64(frameHeader + binary.LittleEndian.Uint32(zeroed[lastStart:]))
		if cut == lastStart {
			want = 0
		}
		if skipped != want || cut >= lastStart+4 && skipped != int64(len(buf)-lastStart) {
			t.Fatalf("zeroed from %d: skipped %d bytes, want %d of a %d-B frame", cut, skipped, want, len(buf)-lastStart)
		}
	}
	// Flip one byte anywhere in the last frame: CRC must reject it.
	for _, flip := range []int{lastStart, lastStart + 4, lastStart + frameHeader, len(buf) - 1} {
		mut := append([]byte(nil), buf...)
		mut[flip] ^= 0x01
		n := 0
		readFrames(mut, func(lsn uint64, payload []byte) { n++ })
		// A flipped length byte may still parse earlier frames only; a
		// flipped payload byte fails the CRC. Either way the corrupt final
		// frame must not surface.
		if n > frames-1 {
			t.Fatalf("flip at %d: corrupt frame surfaced (%d frames)", flip, n)
		}
	}
}

// TestWALSyncModes drives each sync mode through append → waitDurable →
// close and replays the segment from disk. Each row also holds append to its
// mode's promise the moment it returns, before any waitDurable: under
// always the record is fsync'd, under off it is written and nothing is
// fsync'd until close, and under group append promises nothing.
func TestWALSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncGroup, SyncOff} {
		t.Run(string(mode), func(t *testing.T) {
			dir := t.TempDir()
			w, err := openWAL(dir, mode, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			var last, fsyncs uint64
			for i := 0; i < 20; i++ {
				last = w.append([]byte(fmt.Sprintf("payload-%d", i)))
				w.mu.Lock()
				durable, synced := w.durable, w.fsyncs
				w.mu.Unlock()
				switch {
				case mode == SyncAlways && (durable < last || synced <= fsyncs):
					t.Fatalf("append %d returned at durable %d with %d fsyncs (before: %d)", last, durable, synced, fsyncs)
				case mode == SyncOff && (durable < last || synced != 0):
					t.Fatalf("append %d returned at durable %d with %d fsyncs, want written and none", last, durable, synced)
				}
				fsyncs = synced
			}
			if last != 20 {
				t.Fatalf("last lsn %d, want 20", last)
			}
			if err := w.waitDurable(last); err != nil {
				t.Fatalf("waitDurable: %v", err)
			}
			if err := w.close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if mode == SyncOff && w.fsyncs != 1 {
				t.Fatalf("off: %d fsyncs after close, want close's one", w.fsyncs)
			}
			data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			if skipped := readFrames(data, func(uint64, []byte) { n++ }); skipped != 0 {
				t.Fatalf("segment has %d skipped bytes", skipped)
			}
			if n != 20 {
				t.Fatalf("replayed %d frames, want 20", n)
			}
		})
	}
}

// TestSegmentHasOneWriter parses the package's non-test source and fails on
// any write to the active segment outside the flusher: only flusher writes
// it (WriteAt, the frames and the zeros it grows the segment by; no other
// write method is called on it anywhere), only flusher and close (the last
// fsync) call Sync on it, and only flusher advances the durable watermark —
// besides openWAL's wal literal, which sets its start. The segment is w.f,
// or a local assigned from it.
func TestSegmentHasOneWriter(t *testing.T) {
	allowed := map[string]map[string]bool{
		"WriteAt": {"flusher": true},
		"Sync":    {"flusher": true, "close": true},
		"durable": {"flusher": true},
	}
	writes := map[string]bool{"Write": true, "WriteAt": true, "WriteString": true, "ReadFrom": true, "Truncate": true, "Sync": true}
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{} // "what in fn" for every allowed write found
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".go") || strings.HasSuffix(ent.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, ent.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			segment := map[string]bool{} // locals assigned from .f
			isSegment := func(e ast.Expr) bool {
				switch e := e.(type) {
				case *ast.SelectorExpr:
					return e.Sel.Name == "f"
				case *ast.Ident:
					return segment[e.Name]
				}
				return false
			}
			note := func(pos token.Pos, what string) {
				if allowed[what][fn.Name.Name] {
					seen[what+" in "+fn.Name.Name] = true
					return
				}
				t.Errorf("%s: %s writes the segment (%s); only the flusher may", fset.Position(pos), fn.Name.Name, what)
			}
			isDurable := func(e ast.Expr) bool {
				sel, ok := e.(*ast.SelectorExpr)
				return ok && sel.Sel.Name == "durable"
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if isDurable(lhs) {
							note(n.Pos(), "durable")
						}
						if id, ok := lhs.(*ast.Ident); ok && len(n.Rhs) == len(n.Lhs) && isSegment(n.Rhs[i]) {
							segment[id.Name] = true
						}
					}
				case *ast.IncDecStmt:
					if isDurable(n.X) {
						note(n.Pos(), "durable")
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && writes[sel.Sel.Name] && isSegment(sel.X) {
						note(n.Pos(), sel.Sel.Name)
					}
				case *ast.CompositeLit:
					if id, ok := n.Type.(*ast.Ident); !ok || id.Name != "wal" || fn.Name.Name == "openWAL" {
						break
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "durable" {
								t.Errorf("%s: %s builds a wal with durable set; only openWAL may", fset.Position(kv.Pos()), fn.Name.Name)
							}
						}
					}
				}
				return true
			})
		}
	}
	for _, want := range []string{"WriteAt in flusher", "Sync in flusher", "Sync in close", "durable in flusher"} {
		if !seen[want] {
			t.Errorf("found no %s (did it move?)", want)
		}
	}
}

// TestWALAbandon pins the kill -9 semantics: appends after abandon are
// swallowed (returning the last LSN), waiters are released, and close is a
// no-op.
func TestWALAbandon(t *testing.T) {
	w, err := openWAL(t.TempDir(), SyncGroup, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lsn := w.append([]byte("pre"))
	w.abandon()
	if got := w.append([]byte("post")); got != lsn {
		t.Fatalf("append after abandon returned %d, want swallowed at %d", got, lsn)
	}
	done := make(chan struct{})
	go func() {
		w.waitDurable(lsn + 100) // must not block forever
		close(done)
	}()
	<-done
	if err := w.close(); err != nil {
		t.Fatalf("close after abandon: %v", err)
	}
}

// TestWALRotate checks segment sealing: records straddling a rotation all
// replay, and listSegments sees both files.
func TestWALRotate(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, SyncAlways, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.append([]byte("one"))
	if err := w.waitDurable(w.lastLSNSnapshot()); err != nil {
		t.Fatal(err)
	}
	sealed, err := w.rotate()
	if err != nil {
		t.Fatal(err)
	}
	if sealed != 1 {
		t.Fatalf("sealed segment %d, want 1", sealed)
	}
	w.append([]byte("two"))
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("segments %v, want [1 2]", seqs)
	}
	total := 0
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		readFrames(data, func(uint64, []byte) { total++ })
	}
	if total != 2 {
		t.Fatalf("replayed %d frames across segments, want 2", total)
	}
}

// TestParseSegmentName pins the file-name grammar Open's directory scan
// relies on.
func TestParseSegmentName(t *testing.T) {
	seq, ok := parseSegmentName(segmentName(42))
	if !ok || seq != 42 {
		t.Fatalf("roundtrip failed: %d %v", seq, ok)
	}
	for _, bad := range []string{"snapshot.wal", "journal-.wal", "journal-xx.wal", "other-00000001.wal", "journal-00000001.tmp"} {
		if _, ok := parseSegmentName(bad); ok {
			t.Errorf("%q parsed as a segment", bad)
		}
	}
}
