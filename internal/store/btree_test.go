package store

import (
	"math/rand"
	"sort"
	"testing"
)

// keysOf lists the tree's keys, ascending, through walk.
func keysOf[K btreeKey](bt *btree[K]) []K {
	var out []K
	bt.walk(nil, nil, false, func(k K, _ []int64) bool { out = append(out, k); return true })
	return out
}

// edgeKey returns the smallest key (last false) or the largest, through
// a walk in that direction, and false when the tree is empty.
func edgeKey[K btreeKey](bt *btree[K], last bool) (k K, ok bool) {
	bt.walk(nil, nil, last, func(key K, _ []int64) bool { k, ok = key, true; return false })
	return k, ok
}

func TestBTreeInsertGet(t *testing.T) {
	bt := newBTree[int64]()
	for i := int64(0); i < 1000; i++ {
		bt.Insert(i%100, i)
	}
	if len(keysOf(bt)) != 100 {
		t.Fatalf("Len = %d, want 100", len(keysOf(bt)))
	}
	post := bt.Get(42)
	if len(post) != 10 {
		t.Fatalf("postings for 42 = %d entries, want 10", len(post))
	}
	for _, id := range post {
		if id%100 != 42 {
			t.Fatalf("posting %d not ≡42 mod 100", id)
		}
	}
	if bt.Get(1000) != nil {
		t.Fatal("missing key returned postings")
	}
}

func TestBTreeOrderedIteration(t *testing.T) {
	bt := newBTree[int64]()
	rng := rand.New(rand.NewSource(42))
	keys := rng.Perm(5000)
	for _, k := range keys {
		bt.Insert(int64(k), int64(k))
	}
	var got []int64
	bt.walk(nil, nil, false, func(k int64, _ []int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 5000 {
		t.Fatalf("iterated %d keys, want 5000", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("iteration not sorted")
	}
}

func TestBTreeRangeBounds(t *testing.T) {
	bt := newBTree[int64]()
	for i := int64(0); i < 100; i++ {
		bt.Insert(i, i)
	}
	lo, hi := int64(10), int64(19)
	var got []int64
	bt.walk(&lo, &hi, false, func(k int64, _ []int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("range [10,19] = %v", got)
	}
	// Open bounds.
	var below []int64
	bt.walk(nil, &lo, false, func(k int64, _ []int64) bool {
		below = append(below, k)
		return true
	})
	if len(below) != 11 {
		t.Fatalf("range (-inf,10] = %d keys, want 11", len(below))
	}
	var above []int64
	bt.walk(&hi, nil, false, func(k int64, _ []int64) bool {
		above = append(above, k)
		return true
	})
	if len(above) != 81 {
		t.Fatalf("range [19,inf) = %d keys, want 81", len(above))
	}
}

func TestBTreeRangeEarlyStop(t *testing.T) {
	bt := newBTree[int64]()
	for i := int64(0); i < 100; i++ {
		bt.Insert(i, i)
	}
	count := 0
	bt.walk(nil, nil, false, func(int64, []int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop iterated %d, want 5", count)
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := newBTree[int64]()
	for i := int64(0); i < 500; i++ {
		bt.Insert(i, i)
		bt.Insert(i, i+1000)
	}
	// Remove one posting: key stays.
	if !bt.Delete(7, 7) {
		t.Fatal("delete existing posting failed")
	}
	if post := bt.Get(7); len(post) != 1 || post[0] != 1007 {
		t.Fatalf("postings after partial delete = %v", post)
	}
	// Remove the other: key goes.
	if !bt.Delete(7, 1007) {
		t.Fatal("delete second posting failed")
	}
	if bt.Get(7) != nil {
		t.Fatal("key survived full delete")
	}
	if len(keysOf(bt)) != 499 {
		t.Fatalf("Len = %d, want 499", len(keysOf(bt)))
	}
	// Deleting a missing posting fails cleanly.
	if bt.Delete(8, 9999) {
		t.Fatal("delete of missing posting succeeded")
	}
	if bt.Delete(99999, 0) {
		t.Fatal("delete of missing key succeeded")
	}
}

func TestBTreeMinMax(t *testing.T) {
	bt := newBTree[int64]()
	if _, ok := edgeKey(bt, false); ok {
		t.Fatal("empty tree has Min")
	}
	if _, ok := edgeKey(bt, true); ok {
		t.Fatal("empty tree has Max")
	}
	for _, k := range []int64{50, 10, 90, 30, 70} {
		bt.Insert(k, k)
	}
	if mn, _ := edgeKey(bt, false); mn != 10 {
		t.Fatalf("Min = %v", mn)
	}
	if mx, _ := edgeKey(bt, true); mx != 90 {
		t.Fatalf("Max = %v", mx)
	}
	bt.Delete(90, 90)
	if mx, ok := edgeKey(bt, true); !ok || mx != 70 {
		t.Fatalf("Max after delete = %v (%v)", mx, ok)
	}
}

func TestBTreeStringKeys(t *testing.T) {
	bt := newBTree[string]()
	words := []string{"kinase", "ligase", "hydrolase", "transferase", "oxidoreductase"}
	for i, w := range words {
		bt.Insert(w, int64(i))
	}
	var got []string
	bt.walk(nil, nil, false, func(k string, _ []int64) bool {
		got = append(got, k)
		return true
	})
	if !sort.StringsAreSorted(got) {
		t.Fatalf("string keys not sorted: %v", got)
	}
}

func TestBTreeMatchesReferenceModel(t *testing.T) {
	// Property test against a map+sort reference model under a random
	// insert/delete workload.
	bt := newBTree[int64]()
	ref := map[int64]map[int64]bool{}
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 20000; op++ {
		k := int64(rng.Intn(300))
		id := int64(rng.Intn(50))
		if rng.Float64() < 0.7 {
			// Avoid duplicate (k,id) postings in the model; the tree
			// allows them but the model would diverge.
			if ref[k] == nil {
				ref[k] = map[int64]bool{}
			}
			if !ref[k][id] {
				ref[k][id] = true
				bt.Insert(k, id)
			}
		} else {
			want := ref[k] != nil && ref[k][id]
			got := bt.Delete(k, id)
			if got != want {
				t.Fatalf("op %d: Delete(%d,%d) = %v, want %v", op, k, id, got, want)
			}
			if want {
				delete(ref[k], id)
				if len(ref[k]) == 0 {
					delete(ref, k)
				}
			}
		}
	}
	if len(keysOf(bt)) != len(ref) {
		t.Fatalf("Len = %d, model = %d", len(keysOf(bt)), len(ref))
	}
	for k, ids := range ref {
		post := bt.Get(k)
		if len(post) != len(ids) {
			t.Fatalf("key %d: %d postings, model %d", k, len(post), len(ids))
		}
		for _, id := range post {
			if !ids[id] {
				t.Fatalf("key %d: unexpected posting %d", k, id)
			}
		}
	}
	// Ordered iteration matches the sorted model keys.
	var modelKeys []int64
	for k := range ref {
		modelKeys = append(modelKeys, k)
	}
	sort.Slice(modelKeys, func(i, j int) bool { return modelKeys[i] < modelKeys[j] })
	var treeKeys []int64
	bt.walk(nil, nil, false, func(k int64, _ []int64) bool {
		treeKeys = append(treeKeys, k)
		return true
	})
	if len(treeKeys) != len(modelKeys) {
		t.Fatalf("iteration found %d keys, model %d", len(treeKeys), len(modelKeys))
	}
	for i := range treeKeys {
		if treeKeys[i] != modelKeys[i] {
			t.Fatalf("key %d: %d != %d", i, treeKeys[i], modelKeys[i])
		}
	}
}

// TestBTreeChurnEdgesAndDescending deletes from both ends and the
// middle until whole leaves (the rightmost among them) stand empty, and
// checks the edge keys and walks in both directions against a sorted
// reference after every round. A descending walk must reach the last key
// through the prev links however many empty leaves trail it.
func TestBTreeChurnEdgesAndDescending(t *testing.T) {
	bt := newBTree[int64]()
	rng := rand.New(rand.NewSource(17))
	live := map[int64]bool{}
	for i := int64(0); i < 6000; i++ {
		bt.Insert(i, i)
		live[i] = true
	}
	check := func(round int) {
		t.Helper()
		ref := make([]int64, 0, len(live))
		for k := range live {
			ref = append(ref, k)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		mn, okMin := edgeKey(bt, false)
		mx, okMax := edgeKey(bt, true)
		if okMin != (len(ref) > 0) || okMax != (len(ref) > 0) {
			t.Fatalf("round %d: Min ok=%v Max ok=%v with %d keys", round, okMin, okMax, len(ref))
		}
		if len(ref) == 0 {
			return
		}
		if mn != ref[0] || mx != ref[len(ref)-1] {
			t.Fatalf("round %d: Min/Max = %d/%d, want %d/%d", round, mn, mx, ref[0], ref[len(ref)-1])
		}
		lo, hi := ref[len(ref)/4]-1, ref[3*len(ref)/4]+1
		for _, bounds := range [][2]*int64{{nil, nil}, {&lo, &hi}, {&lo, nil}, {nil, &hi}} {
			var want []int64
			for _, k := range ref {
				if (bounds[0] == nil || k >= *bounds[0]) && (bounds[1] == nil || k <= *bounds[1]) {
					want = append(want, k)
				}
			}
			var asc, desc []int64
			bt.walk(bounds[0], bounds[1], false, func(k int64, _ []int64) bool { asc = append(asc, k); return true })
			bt.walk(bounds[0], bounds[1], true, func(k int64, _ []int64) bool { desc = append(desc, k); return true })
			if len(asc) != len(want) || len(desc) != len(want) {
				t.Fatalf("round %d: walked %d asc, %d desc, want %d", round, len(asc), len(desc), len(want))
			}
			for i, k := range want {
				if asc[i] != k || desc[len(want)-1-i] != k {
					t.Fatalf("round %d: position %d: asc %d, desc %d, want %d", round, i, asc[i], desc[len(want)-1-i], k)
				}
			}
		}
	}
	del := func(k int64) {
		if live[k] {
			bt.Delete(k, k)
			delete(live, k)
		}
	}
	for round := 0; len(live) > 0; round++ {
		// Shave the top (emptying the rightmost leaves), the bottom, and
		// a random sprinkle; re-insert a few so splits meet sparse leaves.
		mx, _ := edgeKey(bt, true)
		mn, _ := edgeKey(bt, false)
		for i := int64(0); i < 150; i++ {
			del(mx - i)
			del(mn + i/3)
			del(rng.Int63n(6000))
		}
		if round%4 == 0 && len(live) > 500 {
			for i := 0; i < 20; i++ {
				k := rng.Int63n(6000)
				if !live[k] {
					bt.Insert(k, k)
					live[k] = true
				}
			}
		}
		check(round)
	}
	check(-1)
	if len(keysOf(bt)) != 0 {
		t.Fatalf("Len = %d after deleting everything", len(keysOf(bt)))
	}
}
