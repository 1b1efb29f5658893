package exec

import (
	"slices"
	"testing"
)

// chainOf walks h's chain.
func chainOf(tab *hashTable, h uint64) []int32 {
	var out []int32
	for e := tab.first(h); e >= 0; e = tab.next[e] {
		out = append(out, e)
	}
	return out
}

// TestHashTableChains: entries are numbered in insertion order, a chain
// yields its entries in that order however other hashes interleave with it,
// keys that collide on one hash share a chain the caller tells apart, and
// reset empties the table while keeping its storage.
func TestHashTableChains(t *testing.T) {
	// Entries are keys; "a", "b" and "c" collide on hash 7.
	keys := []string{"a", "x", "b", "a", "y", "z", "c", "a"}
	hashOf := map[string]uint64{"a": 7, "b": 7, "c": 7, "x": 3, "y": 3, "z": 9}
	var tab hashTable
	fill := func() {
		tab.reset(len(keys))
		for i, k := range keys {
			if e := tab.add(hashOf[k]); e != int32(i) {
				t.Fatalf("entry %d numbered %d", i, e)
			}
		}
	}
	fill()
	for h, want := range map[uint64][]int32{7: {0, 2, 3, 6, 7}, 3: {1, 4}, 9: {5}, 8: nil} {
		if got := chainOf(&tab, h); !slices.Equal(got, want) {
			t.Fatalf("chain of %d = %v, want %v", h, got, want)
		}
	}
	var as []int32
	for _, e := range chainOf(&tab, hashOf["a"]) {
		if keys[e] == "a" {
			as = append(as, e)
		}
	}
	if want := []int32{0, 3, 7}; !slices.Equal(as, want) {
		t.Fatalf("entries of key a = %v, want %v", as, want)
	}

	tab.reset(0)
	if len(tab.next) != 0 || tab.first(7) != -1 || tab.first(3) != -1 {
		t.Fatalf("reset left entries: next %v, chain of 7 from %d", tab.next, tab.first(7))
	}
	if cap(tab.next) < len(keys) {
		t.Fatalf("reset dropped the next array (cap %d)", cap(tab.next))
	}
	if allocs := testing.AllocsPerRun(20, fill); allocs != 0 {
		t.Fatalf("refilling a reset table allocates %.1f objects, want 0", allocs)
	}
}
