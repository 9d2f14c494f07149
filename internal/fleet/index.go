package fleet

import (
	"sort"
	"unsafe"
)

// entry is one job of the index, in ID order. It holds no pointer, and it
// holds only what a reader needs to find the job and its record: the
// submission instant is stored with the record's own part (arena.add), and
// the journal LSN a keyed replay waits on with the key's binding (keyed).
type entry struct {
	id    int
	chunk uint32 // arena chunk of the stored record and its circuit
	rec   span   // the record's own part, led by the back-reference to its shared part and the submission instant
	circ  span   // the request circuit's binary form, shared by the chunk's records that repeat it; empty for none
	user  uint32 // the job's user, by its Scheduler.users number
	state uint8  // sealedStates code; 0 while live
}

// entrySize is the bytes one entry takes in a page.
const entrySize = int(unsafe.Sizeof(entry{}))

// indexPageShift sizes the index's pages: 1<<12 entries, 160 KiB.
const indexPageShift = 12

// jobIndex is every job the scheduler holds, live or sealed, in ID order:
// IDs are minted ascending and Restore enters them sorted. Its entries sit
// in fixed pages of 1<<shift entries, which the arena maps as it maps its
// chunks and frees with them: off the Go heap where the platform allows it
// (arena_mmap.go), so a job's entry costs its bytes and no collector
// headroom. An append fills the last page or maps another, so an entry
// never moves — an *entry stays valid as the index grows — and no append
// copies the index. Guarded by Scheduler.mu.
type jobIndex struct {
	pages [][]entry
	n     int
	shift uint
}

// len is how many jobs the index holds.
func (x *jobIndex) len() int { return x.n }

// at is the entry at position i, which must be < len: the one accessor
// every reader of the index goes through.
func (x *jobIndex) at(i int) *entry {
	return &x.pages[i>>x.shift][i&(1<<x.shift-1)]
}

// push appends e, mapping a page when the last one is full.
func (x *jobIndex) push(e entry) {
	if x.n>>x.shift == len(x.pages) {
		x.pages = append(x.pages, mapPage(1<<x.shift))
	}
	*x.at(x.n) = e
	x.n++
}

// search is the position of the first entry whose ID is >= id, len when
// there is none.
func (x *jobIndex) search(id int) int {
	return sort.Search(x.n, func(i int) bool { return x.at(i).id >= id })
}

// bytes is what the entries fill; the last page maps the rest of its
// entries, which take memory only once they are written.
func (x *jobIndex) bytes() int64 { return int64(x.n) * int64(entrySize) }

// mapPage is an index page of n zero entries, mapped as an arena chunk is.
// A chunk is page-aligned (or, on the heap, aligned for any word), so an
// entry fits at its start.
func mapPage(n int) []entry {
	b := mapChunk(n * entrySize)
	return unsafe.Slice((*entry)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// free returns every page to the system. Nothing reads the index after it.
func (x *jobIndex) free() {
	for _, p := range x.pages {
		unmapChunk(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), len(p)*entrySize))
	}
	x.pages, x.n = nil, 0
}
