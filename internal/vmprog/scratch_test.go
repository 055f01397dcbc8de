package vmprog

import (
	"context"
	"slices"
	"testing"

	"priceadaptive/internal/tso"
)

// bufferedState drives peterson n=2 until process 0 holds a buffered write
// and process 1 has started, a state with one non-empty and one empty buffer.
func bufferedState(t *testing.T) (*Engine, *State) {
	t.Helper()
	eng := buildEngine(t, "peterson", 2, false)
	st := eng.Initial()
	for _, d := range []tso.Decision{{P: 0}, {P: 0}, {P: 1}} {
		if err := eng.Apply(st, d); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.Procs[0].Buf) == 0 || len(st.Procs[1].Buf) != 0 {
		t.Fatalf("want one buffered write on process 0 only, got %d/%d",
			len(st.Procs[0].Buf), len(st.Procs[1].Buf))
	}
	return eng, st
}

// TestHashIgnoresBufferRepresentation pins that state identity is the
// content of a buffer, not its representation: spare capacity, and nil
// versus empty, must not change the hash.
func TestHashIgnoresBufferRepresentation(t *testing.T) {
	eng, st := bufferedState(t)
	want := eng.Hash(st)

	roomy := st.Clone()
	for i := range roomy.Procs {
		roomy.Procs[i].Buf = append(make([]bufEnt, 0, 16), roomy.Procs[i].Buf...)
	}
	if got := eng.Hash(roomy); got != want {
		t.Errorf("spare buffer capacity changed the hash: %#x, want %#x", got, want)
	}

	nilBuf, emptyBuf := st.Clone(), st.Clone()
	nilBuf.Procs[1].Buf = nil
	emptyBuf.Procs[1].Buf = make([]bufEnt, 0, 4)
	if eng.Hash(nilBuf) != want || eng.Hash(emptyBuf) != want {
		t.Errorf("nil vs empty buffer changed the hash: nil %#x, empty %#x, want %#x",
			eng.Hash(nilBuf), eng.Hash(emptyBuf), want)
	}

	// A buffer drained by a commit keeps its backing array; a crash
	// truncates it. Both must hash like a state that never buffered.
	drained := st.Clone()
	if err := eng.Commit(drained, 0, -1); err != nil {
		t.Fatal(err)
	}
	fresh := drained.Clone()
	fresh.Procs[0].Buf = nil
	if eng.Hash(drained) != eng.Hash(fresh) {
		t.Error("a drained buffer hashes differently from a nil one")
	}
}

// TestScratchPathKeepsQueuedStates drives crash-enabled expansion through
// the worker's scratch path one frontier item at a time, on rtas-dirty (two
// crashes into a lock that does not recover) and on bakery (buffers holding
// several writes, so commits shift entries in place). Every successor queued
// must equal what a clone-then-apply of the parent produces, and must keep
// its encoding while later expansions commit, push and crash on the scratch
// state; the parent must come out of its own expansion unchanged.
func TestScratchPathKeepsQueuedStates(t *testing.T) {
	for _, name := range []string{"rtas-dirty", "bakery"} {
		t.Run(name, func(t *testing.T) { scratchPathKeepsQueuedStates(t, name) })
	}
}

func scratchPathKeepsQueuedStates(t *testing.T, name string) {
	eng := buildEngine(t, name, 2, false)
	crash := CrashOpts{MaxCrashes: 2, MaxPerProc: 1}
	g := newPGraph(1, true)
	w := &pworker{eng: eng.workerClone(), g: g, ctx: context.Background(), crash: crash}
	root := eng.Initial()
	rh := eng.hash(root)
	g.insert(rh, rootDec, root, nil, rh, nil, -1)

	type queued struct {
		st  *State
		enc []uint64
	}
	var kinds [3]int // pushes, commits, crashes applied on the scratch
	for layer := int32(0); ; layer++ {
		front := g.takeFronts()[0]
		if len(front) == 0 {
			break
		}
		w.layer = layer
		var held []queued
		for _, it := range front {
			parentEnc := encode(nil, it.st)
			want := map[uint64][]uint64{}
			for _, d := range eng.EnabledDecisions(it.st, crash) {
				c := it.st.Clone()
				if err := eng.Apply(c, d); err != nil {
					continue
				}
				want[eng.hash(c)] = encode(nil, c)
				before, after := len(it.st.Procs[d.P].Buf), len(c.Procs[d.P].Buf)
				switch {
				case d.Crash:
					kinds[2]++
				case after < before:
					kinds[1]++
				case after > before:
					kinds[0]++
				}
			}
			before := len(g.shards[0].next)
			w.expandRecov(it)
			if g.err != nil {
				t.Fatal(g.err)
			}
			if !slices.Equal(encode(nil, it.st), parentEnc) {
				t.Fatalf("layer %d: expansion modified its parent", layer)
			}
			for _, q := range g.shards[0].next[before:] {
				enc := encode(nil, q.st)
				if exp, ok := want[q.h]; !ok || !slices.Equal(enc, exp) {
					t.Fatalf("layer %d: queued state differs from the clone-then-apply successor", layer)
				}
				for _, s := range w.x.scratch {
					if q.st == s {
						t.Fatalf("layer %d: the scratch state itself was queued", layer)
					}
				}
				held = append(held, queued{st: q.st, enc: enc})
			}
		}
		for i, q := range held {
			if !slices.Equal(encode(nil, q.st), q.enc) {
				t.Fatalf("layer %d: queued state %d changed after later expansions used the scratch", layer, i)
			}
		}
	}
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
		t.Fatalf("the scratch saw pushes/commits/crashes %v; every kind must occur", kinds)
	}
	t.Logf("pushes/commits/crashes applied: %v", kinds)
}

// TestHotPathAllocations guards the per-transition path: hashing allocates
// nothing, and overwriting a warm scratch state from a parent allocates
// nothing either.
func TestHotPathAllocations(t *testing.T) {
	eng, st := bufferedState(t)
	if a := testing.AllocsPerRun(100, func() { eng.Hash(st) }); a != 0 {
		t.Errorf("Engine.Hash allocates %.1f times per call, want 0", a)
	}
	scratch := &State{}
	scratch.overwrite(st)
	if a := testing.AllocsPerRun(100, func() { scratch.overwrite(st) }); a != 0 {
		t.Errorf("overwriting a warm scratch state allocates %.1f times, want 0", a)
	}
	if !slices.Equal(encode(nil, scratch), encode(nil, st)) {
		t.Error("overwrite does not reproduce its source")
	}
}
