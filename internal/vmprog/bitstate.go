package vmprog

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"priceadaptive/internal/tso"
)

// bpath is an immutable cons cell of real-frame decisions. Bitstate mode has
// no breadcrumb maps to reconstruct schedules from, so frontier items carry
// their whole path as a shared-prefix list: memory is one cell per tree edge
// still reachable from a live frontier item, and dead layers are collected.
type bpath struct {
	d    tso.Decision
	prev *bpath
}

func (p *bpath) schedule() []tso.Decision {
	var rev []tso.Decision
	for ; p != nil; p = p.prev {
		rev = append(rev, p.d)
	}
	out := make([]tso.Decision, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// bitem is a bitstate frontier entry.
type bitem struct {
	st   *State
	h    uint64
	path *bpath
	cum  []int
}

// mix64 is the splitmix64 finalizer. It finishes the state hash, and here
// derives the second bit position from the state hash so the two probes
// are (near-)independent.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bgraph is the shared state of a bitstate run: a double-hashed atomic bit
// array in place of exact seen-sets, plus sharded next-layer queues.
type bgraph struct {
	words  []atomic.Uint64
	mask   uint64
	states atomic.Int64
	queues []bqueue
	stop   atomic.Bool
	mu     sync.Mutex
	err    error // guarded by mu
}

type bqueue struct {
	mu   sync.Mutex
	next []bitem // guarded by mu
}

func (g *bgraph) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.stop.Store(true)
}

// testSet sets the bit and reports whether it was already set.
func (g *bgraph) testSet(pos uint64) bool {
	w := &g.words[pos>>6]
	bit := uint64(1) << (pos & 63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return true
		}
		if w.CompareAndSwap(old, old|bit) {
			return false
		}
	}
}

// seen reports whether both probe bits for h are set (without setting them).
func (g *bgraph) seen(h uint64) bool {
	p1, p2 := h&g.mask, mix64(h)&g.mask
	return g.words[p1>>6].Load()&(1<<(p1&63)) != 0 &&
		g.words[p2>>6].Load()&(1<<(p2&63)) != 0
}

// mark sets both probe bits for h and reports whether at least one was
// clear, i.e. whether the state counts as fresh and must be enqueued. Two
// workers racing on the same fresh state may both see it fresh (a bounded
// duplication, resolved when the copies' successors all hash seen); a
// layer's outcome is therefore not bit-for-bit deterministic across worker
// counts, which the Probabilistic result flag already announces.
func (g *bgraph) mark(h uint64) bool {
	seen1 := g.testSet(h & g.mask)
	seen2 := g.testSet(mix64(h) & g.mask)
	if seen1 && seen2 {
		return false
	}
	g.states.Add(1)
	return true
}

// enqueue appends a fresh item to its next-layer queue.
func (g *bgraph) enqueue(it bitem) {
	q := &g.queues[it.h%uint64(len(g.queues))]
	q.mu.Lock()
	q.next = append(q.next, it)
	q.mu.Unlock()
}

// bworker is one bitstate exploration worker.
type bworker struct {
	eng   *Engine
	g     *bgraph
	ctx   context.Context // padvet:allow ctx-field run root: a worker lives for one check call
	ticks int

	transitions int
	ampleSteps  int

	viol     bool
	violH    uint64
	violPath *bpath

	// Successors are built in scratch states and cloned only on discovery.
	x expansion
}

// push enqueues canonical child cc with hash h (produced from parent by d
// under permutation perm, in scratch state sc) if its bits were not all set,
// cloning it only then.
func (w *bworker) push(parent bitem, d tso.Decision, cc *State, h uint64, perm []int, sc *State) {
	if !w.g.mark(h) {
		return
	}
	w.g.enqueue(bitem{
		st:   keep(cc, sc),
		h:    h,
		path: &bpath{d: realDecision(w.eng.red, d, parent.cum), prev: parent.path},
		cum:  compose(perm, parent.cum, w.eng.n),
	})
}

func (w *bworker) expand(it bitem) {
	w.ticks++
	if w.ticks&0xff == 0 {
		if err := w.ctx.Err(); err != nil {
			w.g.fail(err)
			return
		}
	}
	e := w.eng
	if e.Violated(it.st) {
		if !w.viol || it.h < w.violH {
			w.viol, w.violH, w.violPath = true, it.h, it.path
		}
		return
	}
	x := &w.x
	if e.red != nil {
		// With only bits for identity there is no discovery layer to
		// freeze, so any seen ample successor triggers the proviso.
		// Over-triggering costs reduction, never soundness: a truly
		// visited successor always reads seen.
		ok, err := x.ample(e, it.st, w.g.seen)
		if err != nil {
			w.g.fail(fmt.Errorf("vmprog: bitstate check: %w", err))
			return
		}
		if ok {
			w.ampleSteps++
			w.transitions += len(x.decs)
			for i, d := range x.decs {
				w.push(it, d, x.kids[i], x.hs[i], x.perms[i], x.scratch[i])
			}
			return
		}
	}
	x.decs = e.decisions(it.st, x.decs[:0])
	sc := x.scratchAt(0)
	for _, d := range x.decs {
		cc, perm, err := e.successor(sc, it.st, d)
		if err != nil {
			w.g.fail(fmt.Errorf("vmprog: bitstate check: %w", err))
			return
		}
		w.transitions++
		w.push(it, d, cc, e.hash(cc), perm, sc)
	}
}

// checkBitstate is CheckParallel's bitstate mode: the same layered frontier
// search with the exact sharded seen-sets replaced by a double-hashed bit
// array sized 1<<BitstateBits bits. The result always carries
// Probabilistic=true.
func (e *Engine) checkBitstate(ctx context.Context, o ParallelOpts) (*CheckResult, error) {
	workers, maxStates := parallelWorkers(o)
	bits := o.BitstateBits
	if bits < 10 {
		bits = 10
	}
	if bits > 36 {
		bits = 36
	}
	size := uint64(1) << bits
	g := &bgraph{
		words:  make([]atomic.Uint64, size/64),
		mask:   size - 1,
		queues: make([]bqueue, workers),
	}
	ws := make([]*bworker, workers)
	for i := range ws {
		ws[i] = &bworker{eng: e.workerClone(), g: g, ctx: ctx}
	}
	res := &CheckResult{Complete: true, Probabilistic: true}
	root, rootPerm := ws[0].eng.canon(ws[0].eng.Initial())
	rh := ws[0].eng.hash(root)
	g.mark(rh)
	g.enqueue(bitem{st: root, h: rh, cum: rootPerm})
	for {
		fronts := make([][]bitem, len(g.queues))
		empty := true
		for i := range g.queues {
			fronts[i] = g.queues[i].next // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
			g.queues[i].next = nil       // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
			if len(fronts[i]) > 0 {
				empty = false
			}
		}
		if empty {
			break
		}
		cursors := make([]atomic.Int64, len(fronts))
		const chunk = 16
		var wg sync.WaitGroup
		for wi := range ws {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				w := ws[wi]
				for off := 0; off < len(fronts); off++ {
					fi := (wi + off) % len(fronts)
					items := fronts[fi]
					for {
						if g.stop.Load() {
							return
						}
						start := int(cursors[fi].Add(chunk)) - chunk
						if start >= len(items) {
							break
						}
						end := start + chunk
						if end > len(items) {
							end = len(items)
						}
						for k := start; k < end; k++ {
							w.expand(items[k])
						}
					}
				}
			}(wi)
		}
		wg.Wait()
		if g.err != nil { // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
			return nil, g.err // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
		}
		viol, violH := false, uint64(0)
		var violPath *bpath
		for _, w := range ws {
			res.Transitions += w.transitions
			res.AmpleSteps += w.ampleSteps
			w.transitions, w.ampleSteps = 0, 0
			if w.viol && (!viol || w.violH < violH) {
				viol, violH, violPath = true, w.violH, w.violPath
			}
			w.viol = false
		}
		res.States = int(g.states.Load())
		if viol {
			res.Violation = true
			res.Schedule = violPath.schedule()
			res.Complete = false
			return res, nil
		}
		if res.States > maxStates {
			res.Complete = false
			return res, nil
		}
	}
	res.States = int(g.states.Load())
	return res, nil
}
