package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Facts is the cross-package side channel of the framework: during
// the collection phase each analyzer's Collect hook runs over every
// package and returns string facts under analyzer-chosen keys
// (conventionally "<pkgpath>.<Recv>.<Func>" for per-function facts).
// The driver merges every package's facts into one table per analyzer
// and hands the merged table to Run through Pass.Facts, so an
// analyzer inspecting internal/core can reason about what a call
// into internal/store acquires or blocks on.
//
// FactSet is the serialized form: analyzer name → key → value. Its
// encoding is stable (JSON with sorted keys) so a facts file produced
// for a dependency package under `go vet -vettool` is byte-identical
// across runs and safe to cache by content hash.
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

// Encode renders fs in the stable wire form. encoding/json sorts map
// keys, so equal fact sets encode byte-identically — the property the
// vet driver's content-addressed .vetx caching relies on.
func (fs FactSet) Encode() ([]byte, error) {
	// Normalize away empty inner maps so "no facts" has one encoding.
	clean := make(FactSet, len(fs))
	for a, kv := range fs {
		if len(kv) > 0 {
			clean[a] = kv
		}
	}
	return json.Marshal(clean)
}

// DecodeFacts parses a serialized fact set. Empty input (the facts
// file a facts-only vet invocation writes for stdlib dependencies)
// decodes as an empty set, not an error.
func DecodeFacts(data []byte) (FactSet, error) {
	fs := make(FactSet)
	if len(data) == 0 {
		return fs, nil
	}
	if err := json.Unmarshal(data, &fs); err != nil {
		return nil, fmt.Errorf("analysis: decoding facts: %w", err)
	}
	return fs, nil
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
