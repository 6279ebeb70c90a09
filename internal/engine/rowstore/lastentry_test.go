package rowstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// rangeCommittedLen is committedLen as it was defined before it
// descended: a scan of the household's whole index range for its last
// entry, and that entry's hours. It is its oracle.
func rangeCommittedLen(t *testing.T, e *Engine, id timeseries.ID) (hours int, nextSeq uint64, found bool) {
	t.Helper()
	var lastK key
	var lastT TID
	err := e.table.index.scanRange(key{ID: uint64(id)}, key{ID: uint64(id) + 1}, func(k key, v TID) error {
		lastK, lastT, found = k, v, true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		return 0, 0, false
	}
	end := lastK.Seq + 1
	if e.table.layout == LayoutArrays {
		tu, err := e.table.heap.get(lastT)
		if err != nil {
			t.Fatal(err)
		}
		_, start, count, err := chunkBounds(tu)
		if err != nil {
			t.Fatal(err)
		}
		end = start + count
	}
	return int(end), lastK.Seq + 1, true
}

// TestLastEntryMatchesRangeScan holds committedLen to the range scan
// it replaces, in both layouts: after the load, after a day appended to
// every household in one batch, after live hours that leave the
// households at different lengths and add one, and after a reopen.
// committedLen is only asked for listed households; it refuses one the
// index does not hold by name.
func TestLastEntryMatchesRangeScan(t *testing.T) {
	src, ds := writeSource(t, 6, 30)
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			dir := t.TempDir()
			e := New(dir, WithLayout(layout))
			defer func() { e.Close() }()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			check := func(stage string, want int) {
				t.Helper()
				stored, _, err := e.table.distinctIDs()
				if err != nil {
					t.Fatal(err)
				}
				if len(stored) != want {
					t.Fatalf("%s: %d households, want %d", stage, len(stored), want)
				}
				absent := []timeseries.ID{0, stored[len(stored)-1] + 1, math.MaxInt64}
				for i, id := range stored {
					hours, next, _, err := e.committedLen(id)
					if err != nil {
						t.Fatalf("%s: household %d: %v", stage, id, err)
					}
					wantHours, wantNext, _ := rangeCommittedLen(t, e, id)
					if hours != wantHours || next != wantNext {
						t.Errorf("%s: household %d: committedLen %d, %d; the range scan %d, %d", stage, id, hours, next, wantHours, wantNext)
					}
					if i > 0 && stored[i-1]+1 < id {
						absent = append(absent, id-1)
					}
				}
				for _, id := range absent {
					if _, _, found := rangeCommittedLen(t, e, id); found {
						t.Fatalf("household %d is stored", id)
					}
					_, _, _, err := e.committedLen(id)
					if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("household %d", id)) {
						t.Errorf("%s: absent household %d: committedLen err = %v, want one naming it", stage, id, err)
					}
				}
			}
			check("loaded", len(ds.Series))
			delta := deltaFor(t, ds, 1)
			if err := e.Append(core.BatchOf(delta, len(ds.Temperature.Values))); err != nil {
				t.Fatal(err)
			}
			check("day", len(ds.Series))
			// Live hours, a batch each: the first three households 30
			// more, the first of them 370 after that, and a new household
			// 12. In the array layout each batch is a chunk, enough for
			// the index to split its root leaf.
			n := len(ds.Temperature.Values) + len(delta.Temperature.Values)
			ids := []timeseries.ID{ds.Series[0].ID, ds.Series[1].ID, ds.Series[2].ID}
			for h := n; h < n+400; h++ {
				if h == n+30 {
					ids = ids[:1]
				}
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			newID := ds.Series[len(ds.Series)-1].ID + 5
			for h := range 12 {
				if err := e.Append(hourBatch([]timeseries.ID{newID}, h)); err != nil {
					t.Fatal(err)
				}
			}
			check("live", len(ds.Series)+1)
			if e.table.index.height < 2 {
				t.Fatalf("index height %d: a lone leaf", e.table.index.height)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e = New(dir)
			if err := e.Open(); err != nil {
				t.Fatal(err)
			}
			check("reopened", len(ds.Series)+1)
		})
	}
}

// filePatch overwrites a table file's bytes at an offset.
type filePatch struct {
	off  uint32
	data []byte
}

// indexPlant is a damaged index, as patches to a table file.
type indexPlant struct {
	name    string
	patches []filePatch
}

// leftStepPlants damages a row-layout index whose root's children are
// leaves so that the first touch's descent for a listed household v
// (btree.last at (v+1, 0)) reaches a leaf that starts at or above its
// bound and steps left, into a subtree that cannot answer:
//
//   - the separator past v's last leaf lowered to (v, MaxUint64), so the
//     left step lands in that leaf, which ends in the next household;
//   - that, with the leaf emptied;
//   - that, with the root's child there pointing at a leaf of an earlier
//     household (where one exists);
//   - that, with the child pointing back at the root, its parent;
//   - the first leaf emptied and the first separator raised to its
//     next household's bound: the leaf chain lists the household, and
//     its descent finds no entry.
//
// v's first entry lies in an earlier leaf than its last, so the listing
// keeps it. Each must be refused; none may panic or loop.
func leftStepPlants(t testing.TB, bt *btree) []indexPlant {
	t.Helper()
	if bt.height != 2 {
		t.Fatalf("index height %d, want a root over leaves", bt.height)
	}
	fr, err := bt.bp.fetch(bt.root)
	if err != nil {
		t.Fatal(err)
	}
	n := int(nodeCount(fr.data[:]))
	children := make([]PageID, n+1)
	for i := range children {
		children[i] = internalChild(fr.data[:], i)
	}
	bt.bp.unpin(fr, false)
	firsts, lasts := make([]key, n+1), make([]key, n+1)
	for i, p := range children {
		fr, err := bt.bp.fetch(p)
		if err != nil {
			t.Fatal(err)
		}
		firsts[i], lasts[i] = leafKey(fr.data[:], 0), leafKey(fr.data[:], int(nodeCount(fr.data[:]))-1)
		bt.bp.unpin(fr, false)
	}
	sep := func(i int, k key) filePatch {
		b := make([]byte, btreeKeySize)
		putKey(b, 0, k)
		return filePatch{uint32(bt.root)*PageSize + btreeHeaderSize + uint32(i)*btreeKeySize, b}
	}
	child := func(i int, p PageID) filePatch {
		b := make([]byte, 4)
		putU32(b, 0, uint32(p))
		return filePatch{uint32(bt.root)*PageSize + internalChildOff + uint32(i)*4, b}
	}
	empty := func(p PageID) filePatch { return filePatch{uint32(p)*PageSize + 2, []byte{0, 0}} }

	var plants []indexPlant
	for c := n - 1; c >= 1; c-- {
		v := firsts[c].ID
		if lasts[c-1].ID != v || firsts[c+1].ID <= v || lasts[c].ID <= v {
			continue
		}
		step := sep(c, key{ID: v, Seq: math.MaxUint64})
		plants = append(plants,
			indexPlant{"left leaf ends in the next household", []filePatch{step}},
			indexPlant{"left leaf empty", []filePatch{step, empty(children[c])}},
			indexPlant{"left child is its parent", []filePatch{step, child(c, bt.root)}})
		for j := range c {
			if lasts[j].ID < v {
				plants = append(plants, indexPlant{"left leaf of an earlier household", []filePatch{step, child(c, children[j])}})
				break
			}
		}
		break
	}
	if v := firsts[1].ID; n >= 2 && firsts[2].ID > v {
		plants = append(plants, indexPlant{"listed household past an empty first leaf",
			[]filePatch{sep(0, key{ID: v + 1}), empty(children[0])}})
	}
	return plants
}

// patchSpan merges patches of img into one write: the bytes from the
// first patched offset to the end of the last, patched.
func patchSpan(img []byte, patches []filePatch) (off uint32, data []byte) {
	lo, hi := patches[0].off, patches[0].off
	for _, p := range patches {
		lo, hi = min(lo, p.off), max(hi, p.off+uint32(len(p.data)))
	}
	data = append([]byte(nil), img[lo:hi]...)
	for _, p := range patches {
		copy(data[p.off-lo:], p.data)
	}
	return lo, data
}

// TestHostileLeftStep plants each of leftStepPlants' damages in a
// row-layout table of four households and reopens it. Open lists the
// households from the leaf chain and succeeds; the first touch, a
// Snapshot or an Append, seeks each household's last entry and must
// refuse the store with a rowstore error, at either int width, without
// a panic or a loop.
func TestHostileLeftStep(t *testing.T) {
	src, ds := writeExact(t, 4, 12)
	dir := t.TempDir()
	e := New(dir, WithLayout(LayoutRows))
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	plants := leftStepPlants(t, e.table.index)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if len(plants) != 5 {
		t.Fatalf("%d damages fit the table, want 5", len(plants))
	}
	img, err := os.ReadFile(filepath.Join(dir, "table.db"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plants {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			damaged := append([]byte(nil), img...)
			for _, fp := range p.patches {
				copy(damaged[fp.off:], fp.data)
			}
			if err := os.WriteFile(filepath.Join(dir, "table.db"), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, touch := range []string{"Snapshot", "Append"} {
				e := New(dir)
				if err := e.Open(); err != nil {
					t.Fatalf("Open: %v", err)
				}
				if touch == "Snapshot" {
					_, _, err = e.Snapshot()
				} else {
					err = e.Append(hourBatch([]timeseries.ID{ds.Series[0].ID}, len(ds.Temperature.Values)))
				}
				var pe *core.PanicError
				if errors.As(err, &pe) || err == nil || !strings.HasPrefix(err.Error(), "rowstore: corrupt index") {
					t.Errorf("%s: err = %v, want a corrupt-index error", touch, err)
				}
				// Release writes nothing back: the store is refused.
				e.Crash()
			}
		})
	}
}
