package rdf

import "sync"

// IDIndex numbers distinct TermIDs of one Dict 0, 1, 2, … in the order
// they are first added. It finds a number through a table indexed by ID,
// so adding and finding hash nothing.
//
// Indexes are pooled. The table is sized to the Dict plus a quarter, since
// a dataset's dictionary only grows, and Release clears only the entries
// that were set: taking an index from the pool costs neither an allocation
// nor a pass over the whole table.
type IDIndex struct {
	slot []int32  // ID -> 1 + its number, or 0
	ids  []TermID // number -> ID
}

var idIndexes = sync.Pool{New: func() any { return new(IDIndex) }}

// NewIDIndex returns an empty index over the IDs d has minted so far. The
// caller must Release it.
func NewIDIndex(d *Dict) *IDIndex {
	x := idIndexes.Get().(*IDIndex)
	if n := d.Len(); len(x.slot) < n {
		x.slot = make([]int32, n+n/4)
	}
	return x
}

// Add returns id's number, numbering id next if it is new; added reports
// whether it was.
func (x *IDIndex) Add(id TermID) (k int32, added bool) {
	if s := x.slot[id]; s != 0 {
		return s - 1, false
	}
	x.ids = append(x.ids, id)
	x.slot[id] = int32(len(x.ids))
	return int32(len(x.ids) - 1), true
}

// Find returns id's number, or -1 if id was not added.
func (x *IDIndex) Find(id TermID) int32 { return x.slot[id] - 1 }

// Release empties x and returns it to the pool; x must not be used after.
func (x *IDIndex) Release() {
	for _, id := range x.ids {
		x.slot[id] = 0
	}
	x.ids = x.ids[:0]
	idIndexes.Put(x)
}
