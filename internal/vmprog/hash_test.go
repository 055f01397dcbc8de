package vmprog_test

import (
	"encoding/binary"
	"testing"

	"priceadaptive/internal/analysis/por"
	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// hashGuardLimit bounds the states collected per program and process count,
// keeping the registry-wide guard inside the tier-1 budget; larger spaces
// are checked on their first hashGuardLimit states in breadth-first order.
// -short (the race-detector CI run) checks a tenth of that.
const hashGuardLimit = 40000

// reachable collects up to limit distinct states reachable from the initial
// state under steps, commits and the crash budget, keyed by their exact
// encoding. With facts installed every successor is replaced by its
// canonical form (dead registers zeroed, symmetric orbit minimum): the
// states a reduced exploration stores. Decisions that fault are skipped.
func reachable(t *testing.T, eng *vmprog.Engine, crash vmprog.CrashOpts, limit int) map[string]*vmprog.State {
	t.Helper()
	key := func(s *vmprog.State) string {
		w := vmprog.EncodeState(s)
		b := make([]byte, 8*len(w))
		for i, x := range w {
			binary.LittleEndian.PutUint64(b[8*i:], x)
		}
		return string(b)
	}
	root, _ := eng.CanonicalState(eng.Initial())
	seen := map[string]*vmprog.State{key(root): root}
	queue := []*vmprog.State{root}
	for i := 0; i < len(queue) && len(seen) < limit; i++ {
		for _, d := range eng.EnabledDecisions(queue[i], crash) {
			c := queue[i].Clone()
			if err := eng.Apply(c, d); err != nil {
				continue
			}
			c, _ = eng.CanonicalState(c)
			if k := key(c); seen[k] == nil {
				seen[k] = c
				queue = append(queue, c)
			}
		}
	}
	return seen
}

// TestHashDistinguishesReachableStates is the collision guard for the
// seen-set hash: over the reachable states of every registry program -
// unreduced at n=2, and canonicalized under the analyzer's full facts at
// n=3 (fixed-size programs once, unreduced at their own n) - the number of distinct Engine.Hash values must equal the number of
// distinct exact encodings. A weak word mixer merges structured states
// (states that differ in one register, or in which process holds a value)
// and fails here long before a benchmark pin would notice.
func TestHashDistinguishesReachableStates(t *testing.T) {
	crash := vmprog.CrashOpts{MaxCrashes: 2, MaxPerProc: 1}
	limit := hashGuardLimit
	if testing.Short() {
		limit /= 10
	}
	for _, ent := range vmprog.Registry() {
		for _, n := range []int{2, 3} {
			reduced := n == 3
			if ent.FixedN > 0 {
				if n != 2 {
					continue
				}
				n = ent.FixedN
			}
			p, err := ent.Build(n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", ent.Name, n, err)
			}
			eng, err := vmprog.NewEngineOrdering(p, n, tso.TSO)
			if err != nil {
				t.Fatalf("%s n=%d: %v", ent.Name, n, err)
			}
			if reduced {
				facts, err := por.Facts(p, n)
				if err != nil {
					t.Fatalf("%s n=%d: facts: %v", ent.Name, n, err)
				}
				if err := eng.UsePruning(facts); err != nil {
					t.Fatalf("%s n=%d: %v", ent.Name, n, err)
				}
			}
			states := reachable(t, eng, crash, limit)
			hashes := make(map[uint64]bool, len(states))
			for _, s := range states {
				hashes[eng.Hash(s)] = true
			}
			if len(hashes) != len(states) {
				t.Errorf("%s n=%d reduced=%v: %d distinct states hash to only %d distinct values",
					ent.Name, n, reduced, len(states), len(hashes))
			}
		}
	}
}
