package analysis

import "sort"

// Facts is the cross-package side channel of the framework: during
// the collection phase each analyzer's Collect hook runs over every
// package and returns string facts under analyzer-chosen keys
// (conventionally "<pkgpath>.<Recv>.<Func>" for per-function facts).
// The driver merges every package's facts into one table per analyzer
// and hands the merged table to Run through Pass.Facts, so an
// analyzer inspecting internal/core can reason about what a call
// into internal/store acquires or blocks on.
//
// FactSet is the merged table: analyzer name → key → value. It lives
// only for one run of the driver.
type FactSet map[string]map[string]string

// Merge folds other into fs, later values winning on key collisions
// (keys are package-scoped by convention, so collisions mean the same
// package was collected twice and the values agree).
func (fs FactSet) Merge(other FactSet) {
	for analyzer, kv := range other {
		dst := fs[analyzer]
		if dst == nil {
			dst = make(map[string]string, len(kv))
			fs[analyzer] = dst
		}
		for k, v := range kv {
			dst[k] = v
		}
	}
}

// SortedKeys returns the keys of a fact table in stable order, for
// analyzers that must iterate facts deterministically (diagnostic
// order is part of the CI contract).
func SortedKeys(facts map[string]string) []string {
	keys := make([]string, 0, len(facts))
	for k := range facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
