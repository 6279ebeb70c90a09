package rowstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestHeapInsertGetScan(t *testing.T) {
	bp := testPool(t, 32)
	h, err := newHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	var tids []TID
	var want [][]byte
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		tuple := make([]byte, rng.Intn(60)+4)
		rng.Read(tuple)
		tid, err := h.insert(tuple)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		tids = append(tids, tid)
		want = append(want, tuple)
	}
	if h.tuples != 3000 {
		t.Errorf("tuples = %d", h.tuples)
	}
	// Random access.
	for _, i := range rng.Perm(len(tids)) {
		got, err := h.get(tids[i])
		if err != nil {
			t.Fatalf("get %v: %v", tids[i], err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("tuple %d mismatch", i)
		}
	}
	// Scan sees every tuple once in insertion order.
	idx := 0
	err = h.scan(func(tid TID, tuple []byte) error {
		if !bytes.Equal(tuple, want[idx]) {
			return fmt.Errorf("scan tuple %d mismatch", idx)
		}
		if tid != tids[idx] {
			return fmt.Errorf("scan tid %d: %v vs %v", idx, tid, tids[idx])
		}
		idx++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3000 {
		t.Errorf("scan saw %d tuples", idx)
	}
}

func TestHeapLargeTupleRejected(t *testing.T) {
	bp := testPool(t, 8)
	h, _ := newHeapFile(bp)
	if _, err := h.insert(make([]byte, PageSize)); err == nil {
		t.Error("oversized tuple: want error")
	}
	// A maximal tuple fits.
	if _, err := h.insert(make([]byte, PageSize-heapHeaderSize-slotSize)); err != nil {
		t.Errorf("maximal tuple: %v", err)
	}
}

func TestHeapPageChaining(t *testing.T) {
	bp := testPool(t, 8)
	h, _ := newHeapFile(bp)
	// Big tuples force one page each.
	big := make([]byte, PageSize/2)
	for i := 0; i < 10; i++ {
		if _, err := h.insert(big); err != nil {
			t.Fatal(err)
		}
	}
	if h.first == h.last {
		t.Error("expected chained pages")
	}
	count := 0
	h.scan(func(TID, []byte) error { count++; return nil })
	if count != 10 {
		t.Errorf("scan = %d", count)
	}
}

func TestHeapGetErrors(t *testing.T) {
	bp := testPool(t, 8)
	h, _ := newHeapFile(bp)
	h.insert([]byte("x"))
	if _, err := h.get(TID{Page: h.first, Slot: 99}); err == nil {
		t.Error("bad slot: want error")
	}
	if _, err := h.get(TID{Page: 9999, Slot: 0}); err == nil {
		t.Error("bad page: want error")
	}
	// A corrupt slot count admits slots whose entries lie past the page.
	fr, err := bp.fetch(h.first)
	if err != nil {
		t.Fatal(err)
	}
	putU16(fr.data[:], 0, 0xffff)
	bp.unpin(fr, true)
	if _, err := h.get(TID{Page: h.first, Slot: 3000}); err == nil {
		t.Error("slot entry past the page: want error")
	}
}

func TestBufferPoolEvictionWriteback(t *testing.T) {
	pf, err := openPagedFile(t.TempDir() + "/wb.db")
	if err != nil {
		t.Fatal(err)
	}
	defer pf.close()
	bp := newBufferPool(pf, 2)
	// Write three pages through a 2-frame pool.
	var ids []PageID
	for i := 0; i < 3; i++ {
		fr, err := bp.allocate()
		if err != nil {
			t.Fatal(err)
		}
		fr.data[0] = byte(i + 1)
		ids = append(ids, fr.id)
		bp.unpin(fr, true)
	}
	// All three pages must read back correctly despite eviction.
	for i, id := range ids {
		fr, err := bp.fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if fr.data[0] != byte(i+1) {
			t.Errorf("page %d data = %d", id, fr.data[0])
		}
		bp.unpin(fr, false)
	}
	if _, misses := bp.stats(); misses == 0 {
		t.Error("expected misses with pool of 2")
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	pf, err := openPagedFile(t.TempDir() + "/pin.db")
	if err != nil {
		t.Fatal(err)
	}
	defer pf.close()
	bp := newBufferPool(pf, 2)
	a, _ := bp.allocate()
	b, _ := bp.allocate()
	if _, err := bp.allocate(); err == nil {
		t.Error("all pinned: want error")
	}
	// The refused allocate extended the file; fetching that page needs
	// a frame too, and must take no pin when it finds none.
	if _, err := bp.fetch(2); !errors.Is(err, errPoolFull) {
		t.Errorf("fetch with every frame pinned: err = %v, want errPoolFull", err)
	}
	if n := bp.pinnedFrames(); n != 2 {
		t.Errorf("%d frames pinned after refusals, want 2", n)
	}
	bp.unpin(a, false)
	bp.unpin(b, false)
	if _, err := bp.allocate(); err != nil {
		t.Errorf("after unpin: %v", err)
	}
}

func TestPagedFileErrors(t *testing.T) {
	pf, err := openPagedFile(t.TempDir() + "/e.db")
	if err != nil {
		t.Fatal(err)
	}
	defer pf.close()
	var buf [PageSize]byte
	if err := pf.read(0, buf[:]); err == nil {
		t.Error("read past end: want error")
	}
	if err := pf.write(0, buf[:]); err == nil {
		t.Error("write past end: want error")
	}
}
