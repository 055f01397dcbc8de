package vmprog

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"priceadaptive/internal/tso"
)

// ParallelOpts configures the parallel frontier engine (CheckParallel and
// CheckRecoverableParallel).
type ParallelOpts struct {
	// Workers is the worker (and seen-set shard) count; <= 0 means
	// runtime.GOMAXPROCS(0). Results are identical for every worker count:
	// the layered search with the frozen-layer proviso makes the explored
	// graph, the counts and the reconstructed witnesses a function of the
	// program alone, not of scheduling.
	Workers int
	// MaxStates bounds the exploration; <= 0 means 1<<20, matching the
	// sequential engines. The budget is checked at layer barriers, so an
	// incomplete run may overshoot by up to one layer (deterministically).
	MaxStates int
	// BitstateBits, when non-zero, switches CheckParallel to bitstate
	// hashing with 1<<BitstateBits bits (two hash functions per state)
	// instead of exact sharded seen-sets. The result is marked
	// Probabilistic: hash collisions silently merge distinct states, so a
	// clean pass is evidence, not proof. Violations found remain real
	// (every schedule is replayable). Not applicable to recoverability,
	// which needs exact state identity for co-reachability.
	BitstateBits uint
}

// encDec packs a real-frame decision into a breadcrumb word: process id in
// bits 0-7, commit flag in bit 8, crash flag in bit 9, VarPlus1 in bits 10+.
func encDec(d tso.Decision) uint32 {
	v := uint32(d.P) & 0xff
	if d.Commit {
		v |= 1 << 8
	}
	if d.Crash {
		v |= 1 << 9
	}
	v |= uint32(d.VarPlus1) << 10
	return v
}

// rootDec marks the root breadcrumb (no inbound decision).
const rootDec = ^uint32(0)

func decDec(v uint32) tso.Decision {
	return tso.Decision{
		P:        tso.ProcID(v & 0xff),
		Commit:   v&(1<<8) != 0,
		Crash:    v&(1<<9) != 0,
		VarPlus1: int(v >> 10),
	}
}

// pcrumb is the per-state breadcrumb kept in the sharded seen-sets: enough
// to reconstruct an exact real-frame schedule into the state (parent hash +
// inbound decision), the discovery layer for the frozen-layer proviso, and a
// dense node id for the recoverability graph. States themselves are dropped
// once expanded; only breadcrumbs persist.
type pcrumb struct {
	parent uint64
	dec    uint32
	layer  int32
	id     uint32 // shard-local dense id (recoverable mode)
	qidx   uint32 // index into the shard's pending next-queue
}

// pitem is a frontier entry: a state awaiting expansion in the next layer.
type pitem struct {
	st  *State
	h   uint64
	id  uint32 // global dense id (recoverable mode)
	cum []int  // real slot -> current slot; nil = identity
}

// pshard is one hash partition of the seen-set. The owning worker drains its
// next-queue first; other workers steal chunks when theirs run dry.
type pshard struct {
	mu    sync.Mutex
	seen  map[uint64]pcrumb // guarded by mu
	next  []pitem           // guarded by mu
	count int               // guarded by mu
	byID  []uint64          // guarded by mu; local id -> hash (recoverable mode)
}

// pgraph is the shared exploration state of one parallel run.
type pgraph struct {
	shards []pshard
	recov  bool
	stop   atomic.Bool
	mu     sync.Mutex
	err    error // guarded by mu
}

func newPGraph(shards int, recov bool) *pgraph {
	g := &pgraph{shards: make([]pshard, shards), recov: recov}
	for i := range g.shards {
		g.shards[i].seen = make(map[uint64]pcrumb) // padvet:allow lockguard construction: g is not shared yet
	}
	return g
}

func (g *pgraph) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.stop.Store(true)
}

func (g *pgraph) lookup(h uint64) (pcrumb, bool) {
	sh := &g.shards[h%uint64(len(g.shards))]
	sh.mu.Lock()
	c, ok := sh.seen[h]
	sh.mu.Unlock()
	return c, ok
}

// insert routes a state to its owning shard and records it for the next
// layer if unseen. When the state was already discovered in the same layer
// from a different parent, the breadcrumb with the smallest (parent hash,
// decision) pair wins — insertion order within a layer is scheduling-
// dependent, the tie-break makes the surviving breadcrumb (and with it every
// reconstructed witness) deterministic again. It returns the state's global
// dense id (recoverable mode only). child is cloned, and only when unseen,
// if it is the caller's scratch state (see keep).
func (g *pgraph) insert(parentH uint64, dec uint32, child, scratch *State, h uint64, cum []int, layer int32) uint32 {
	s := uint32(len(g.shards))
	idx := uint32(h % uint64(s))
	sh := &g.shards[idx]
	sh.mu.Lock()
	if c, ok := sh.seen[h]; ok {
		if c.layer == layer+1 && (parentH < c.parent || (parentH == c.parent && dec < c.dec)) {
			c.parent, c.dec = parentH, dec
			sh.seen[h] = c
			// The queued frontier entry must carry the winning route's
			// cumulative permutation: successor decisions are translated to
			// the real frame through it, and a schedule whose prefix follows
			// one route but whose suffix was translated through another lands
			// in a symmetric image instead of the witnessed state.
			sh.next[c.qidx].cum = cum
		}
		gid := c.id*s + idx
		sh.mu.Unlock()
		return gid
	}
	local := uint32(sh.count)
	sh.seen[h] = pcrumb{parent: parentH, dec: dec, layer: layer + 1, id: local, qidx: uint32(len(sh.next))}
	sh.count++
	if g.recov {
		sh.byID = append(sh.byID, h)
	}
	gid := local*s + idx
	sh.next = append(sh.next, pitem{st: keep(child, scratch), h: h, id: gid, cum: cum})
	sh.mu.Unlock()
	return gid
}

// countStates sums the shard populations. Call only at a layer barrier.
func (g *pgraph) countStates() int {
	total := 0
	for i := range g.shards {
		total += g.shards[i].count // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
	}
	return total
}

// takeFronts detaches every shard's next-queue. Call only at a layer barrier.
func (g *pgraph) takeFronts() [][]pitem {
	fronts := make([][]pitem, len(g.shards))
	for i := range g.shards {
		fronts[i] = g.shards[i].next // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
		g.shards[i].next = nil       // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
	}
	return fronts
}

// path reconstructs the real-frame schedule into the state with hash h by
// walking breadcrumbs root-ward. Breadcrumb layers strictly decrease along
// the walk, so it terminates at the root (layer 0).
func (g *pgraph) path(h uint64) []tso.Decision {
	var rev []tso.Decision
	for {
		c, ok := g.lookup(h)
		if !ok || c.dec == rootDec {
			break
		}
		rev = append(rev, decDec(c.dec))
		h = c.parent
	}
	out := make([]tso.Decision, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// workerClone builds an engine sharing the (immutable) program and facts but
// owning private reducer scratch, so workers canonicalize concurrently.
func (e *Engine) workerClone() *Engine {
	ne := &Engine{prog: e.prog, n: e.n, ord: e.ord, facts: e.facts}
	if e.facts != nil {
		ne.red = newReducer(ne, e.facts)
	}
	return ne
}

// pworker is one exploration worker. Counters and candidates are merged (and
// reset) by the coordinator at every layer barrier.
type pworker struct {
	eng   *Engine
	g     *pgraph
	ctx   context.Context // padvet:allow ctx-field run root: a worker lives for one Check call
	layer int32
	ticks int

	transitions int
	ampleSteps  int
	crossShard  int

	viol  bool
	violH uint64

	// Successors are built in scratch states and cloned only on discovery.
	x expansion

	// Recoverable mode.
	crash    CrashOpts
	edgeFrom []uint32
	edgeTo   []uint32
	doneIDs  []uint32
	fault    bool
	faultH   uint64
	faultDec uint32
	faultErr string
}

func (w *pworker) tick() bool {
	w.ticks++
	if w.ticks&0xff == 0 {
		if err := w.ctx.Err(); err != nil {
			w.g.fail(err)
			return false
		}
	}
	return true
}

// insert canonical child cc with hash h (produced from parent by d under
// permutation perm, in scratch state sc) into the graph.
func (w *pworker) insert(parent pitem, d tso.Decision, cc *State, h uint64, perm []int, sc *State) uint32 {
	s := uint64(len(w.g.shards))
	if h%s != parent.h%s {
		w.crossShard++
	}
	dec := encDec(realDecision(w.eng.red, d, parent.cum))
	return w.g.insert(parent.h, dec, cc, sc, h, compose(perm, parent.cum, w.eng.n), w.layer)
}

// expand explores one state of the current layer (crash-free mode), applying
// ample-set reduction with the frozen-layer proviso: the ample choice is
// discarded iff some ample successor was first discovered in a layer <= the
// current one. Entries inserted during the current layer carry layer+1 and
// never trigger it, so the proviso — unlike the sequential DFS's
// visited-at-expansion test — is independent of scheduling and worker count.
// Soundness (C3): on any cycle of ample-expanded states, the state with the
// maximum discovery layer L has its cycle successor discovered at a layer
// <= L, which forces full expansion of that state, a contradiction.
func (w *pworker) expand(it pitem) {
	if !w.tick() {
		return
	}
	e := w.eng
	if e.Violated(it.st) {
		if !w.viol || it.h < w.violH {
			w.viol, w.violH = true, it.h
		}
		return
	}
	x := &w.x
	if e.red != nil {
		ok, err := x.ample(e, it.st, func(h uint64) bool {
			c, ok := w.g.lookup(h)
			return ok && c.layer <= w.layer
		})
		if err != nil {
			w.g.fail(fmt.Errorf("vmprog: parallel check: %w", err))
			return
		}
		if ok {
			w.ampleSteps++
			w.transitions += len(x.decs)
			for i, d := range x.decs {
				w.insert(it, d, x.kids[i], x.hs[i], x.perms[i], x.scratch[i])
			}
			return
		}
	}
	x.decs = e.decisions(it.st, x.decs[:0])
	sc := x.scratchAt(0)
	for _, d := range x.decs {
		cc, perm, err := e.successor(sc, it.st, d)
		if err != nil {
			w.g.fail(fmt.Errorf("vmprog: parallel check: %w", err))
			return
		}
		w.transitions++
		w.insert(it, d, cc, e.hash(cc), perm, sc)
	}
}

// expandRecov explores one state of the current layer in crash-enabled
// recoverability mode: no ample reduction (crashes are never independent),
// normalizations apply, and successor edges plus AllDone flags are logged
// for the co-reachability pass. Post-crash runtime faults become candidate
// counterexamples; the (state hash, decision)-minimal one is selected at the
// barrier so the reported fault is deterministic.
func (w *pworker) expandRecov(it pitem) {
	if !w.tick() {
		return
	}
	e := w.eng
	if e.Violated(it.st) {
		if !w.viol || it.h < w.violH {
			w.viol, w.violH = true, it.h
		}
		return
	}
	if e.AllDone(it.st) {
		w.doneIDs = append(w.doneIDs, it.id)
		return
	}
	x := &w.x
	x.decs = e.crashDecisions(it.st, w.crash, e.decisions(it.st, x.decs[:0]))
	sc := x.scratchAt(0)
	for _, d := range x.decs {
		cc, perm, err := e.successor(sc, it.st, d)
		if err != nil {
			if it.st.Crashes == 0 {
				// Crash-free faults are program bugs, not verdicts.
				w.g.fail(fmt.Errorf("vmprog: recoverability check: %w", err))
				return
			}
			rd := encDec(realDecision(e.red, d, it.cum))
			if !w.fault || it.h < w.faultH || (it.h == w.faultH && rd < w.faultDec) {
				w.fault, w.faultH, w.faultDec, w.faultErr = true, it.h, rd, err.Error()
			}
			continue
		}
		w.transitions++
		gid := w.insert(it, d, cc, e.hash(cc), perm, sc)
		w.edgeFrom = append(w.edgeFrom, it.id)
		w.edgeTo = append(w.edgeTo, gid)
	}
}

// runLayer expands every frontier item of the current layer across the
// workers and blocks until the layer is drained (or a worker failed). Worker
// w drains shard w's queue first; exhausted workers steal chunks from the
// other shards via the per-shard atomic cursors.
func runLayer(ws []*pworker, fronts [][]pitem, layer int32, recov bool) {
	g := ws[0].g
	cursors := make([]atomic.Int64, len(fronts))
	const chunk = 16
	var wg sync.WaitGroup
	for wi := range ws {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := ws[wi]
			w.layer = layer
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
						if recov {
							w.expandRecov(items[k])
						} else {
							w.expand(items[k])
						}
					}
				}
			}
		}(wi)
	}
	wg.Wait()
}

func parallelWorkers(o ParallelOpts) (workers, maxStates int) {
	workers = o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxStates = o.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	return workers, maxStates
}

// CheckParallel explores the reachable state space with the parallel
// frontier engine: a layered (breadth-style) search over hash-partitioned
// seen-set shards, one worker per shard, with chunked work stealing inside
// each layer. It decides exactly what the sequential Check decides, composes
// with the same reduction facts (ample sets via the order-independent
// frozen-layer proviso, liveness and symmetry normalization), and
// reconstructs exact real-frame schedules from per-shard breadcrumbs. For a
// fixed program and options the verdict, the state and transition counts and
// the reported schedule are identical for every worker count.
//
// With BitstateBits set the exact seen-sets are replaced by a double-hashed
// bit array and the result is marked Probabilistic (see ParallelOpts).
func (e *Engine) CheckParallel(ctx context.Context, o ParallelOpts) (*CheckResult, error) {
	if o.BitstateBits > 0 {
		return e.checkBitstate(ctx, o)
	}
	workers, maxStates := parallelWorkers(o)
	g := newPGraph(workers, false)
	ws := make([]*pworker, workers)
	for i := range ws {
		ws[i] = &pworker{eng: e.workerClone(), g: g, ctx: ctx}
	}
	res := &CheckResult{Complete: true}
	root, rootPerm := ws[0].eng.canon(ws[0].eng.Initial())
	rh := ws[0].eng.hash(root)
	g.insert(rh, rootDec, root, nil, rh, rootPerm, -1)
	fronts := g.takeFronts()
	for layer := int32(0); ; layer++ {
		runLayer(ws, fronts, layer, false)
		if g.err != nil { // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
			return nil, g.err // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
		}
		viol, violH := false, uint64(0)
		for _, w := range ws {
			res.Transitions += w.transitions
			res.AmpleSteps += w.ampleSteps
			res.crossShard += w.crossShard
			w.transitions, w.ampleSteps, w.crossShard = 0, 0, 0
			if w.viol && (!viol || w.violH < violH) {
				viol, violH = true, w.violH
			}
			w.viol = false
		}
		res.States = g.countStates()
		if viol {
			res.Violation = true
			res.Schedule = g.path(violH)
			res.Complete = false
			return res, nil
		}
		if res.States > maxStates {
			res.Complete = false
			return res, nil
		}
		fronts = g.takeFronts()
		empty := true
		for _, f := range fronts {
			if len(f) > 0 {
				empty = false
				break
			}
		}
		if empty {
			return res, nil
		}
	}
}

// CheckRecoverableParallel decides crash-bounded recoverability with the
// parallel frontier engine. Semantics match CheckRecoverable: exclusion in
// every reachable state plus co-reachability of completion, normalizations
// applied, ample reduction never. Unlike the sequential checker it drops
// states once expanded — only breadcrumbs, dense successor edges and AllDone
// flags persist — cutting the per-state memory by roughly an order of
// magnitude, which is what lets crash spaces beyond the sequential checker's
// reach (the tournament lock at n=4) run to completion. Verdicts, counts and
// witnesses are identical for every worker count; the stuck witness is the
// (layer, hash)-minimal non-co-reachable state.
func (e *Engine) CheckRecoverableParallel(ctx context.Context, o ParallelOpts, crash CrashOpts) (*RecovResult, error) {
	if o.BitstateBits > 0 {
		return nil, errors.New("vmprog: bitstate hashing cannot decide recoverability: co-reachability needs exact state identity")
	}
	workers, maxStates := parallelWorkers(o)
	g := newPGraph(workers, true)
	ws := make([]*pworker, workers)
	for i := range ws {
		ws[i] = &pworker{eng: e.workerClone(), g: g, ctx: ctx, crash: crash}
	}
	res := &RecovResult{}
	root, rootPerm := ws[0].eng.canon(ws[0].eng.Initial())
	rh := ws[0].eng.hash(root)
	g.insert(rh, rootDec, root, nil, rh, rootPerm, -1)
	fronts := g.takeFronts()
	for layer := int32(0); ; layer++ {
		runLayer(ws, fronts, layer, true)
		if g.err != nil { // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
			return nil, g.err // padvet:allow lockguard layer barrier: the coordinator runs alone, workers are parked
		}
		viol, violH := false, uint64(0)
		fault, faultH, faultDec, faultErr := false, uint64(0), uint32(0), ""
		for _, w := range ws {
			res.Transitions += w.transitions
			w.transitions = 0
			if w.viol && (!viol || w.violH < violH) {
				viol, violH = true, w.violH
			}
			if w.fault && (!fault || w.faultH < faultH || (w.faultH == faultH && w.faultDec < faultDec)) {
				fault, faultH, faultDec, faultErr = true, w.faultH, w.faultDec, w.faultErr
			}
			w.viol, w.fault = false, false
		}
		res.States = g.countStates()
		if viol {
			res.Complete = true
			res.Violation = true
			res.ViolationSchedule = g.path(violH)
			return res, nil
		}
		if fault {
			res.Complete = true
			res.Fault = true
			res.FaultErr = faultErr
			res.FaultSchedule = append(g.path(faultH), decDec(faultDec))
			return res, nil
		}
		if res.States > maxStates {
			return res, nil // Complete stays false: no verdict
		}
		fronts = g.takeFronts()
		empty := true
		for _, f := range fronts {
			if len(f) > 0 {
				empty = false
				break
			}
		}
		if empty {
			break
		}
	}
	res.Complete = true
	// Co-reachability of completion over the dense graph: reverse BFS from
	// the AllDone states along a CSR predecessor index built from the
	// workers' edge logs.
	s := uint32(len(g.shards))
	n := uint32(0)
	for idx := range g.shards {
		if c := g.shards[idx].count; c > 0 { // padvet:allow lockguard post-exploration: the layer loop has exited, workers are joined
			if top := uint32(c-1)*s + uint32(idx) + 1; top > n {
				n = top
			}
		}
	}
	edges := 0
	for _, w := range ws {
		edges += len(w.edgeTo)
	}
	cnt := make([]uint32, n+1)
	for _, w := range ws {
		for _, j := range w.edgeTo {
			cnt[j+1]++
		}
	}
	for i := uint32(1); i <= n; i++ {
		cnt[i] += cnt[i-1]
	}
	preds := make([]uint32, edges)
	fill := make([]uint32, n)
	for _, w := range ws {
		for k, j := range w.edgeTo {
			preds[cnt[j]+fill[j]] = w.edgeFrom[k]
			fill[j]++
		}
	}
	coreach := make([]bool, n)
	var queue []uint32
	for _, w := range ws {
		for _, id := range w.doneIDs {
			if !coreach[id] {
				coreach[id] = true
				queue = append(queue, id)
			}
		}
	}
	for len(queue) > 0 {
		j := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, i := range preds[cnt[j]:cnt[j+1]] {
			if !coreach[i] {
				coreach[i] = true
				queue = append(queue, i)
			}
		}
	}
	stuck, stuckH, stuckLayer := false, uint64(0), int32(0)
	for idx := range g.shards {
		sh := &g.shards[idx]
		for local, h := range sh.byID { // padvet:allow lockguard post-exploration: the layer loop has exited, workers are joined
			if coreach[uint32(local)*s+uint32(idx)] {
				continue
			}
			l := sh.seen[h].layer // padvet:allow lockguard post-exploration: the layer loop has exited, workers are joined
			if !stuck || l < stuckLayer || (l == stuckLayer && h < stuckH) {
				stuck, stuckH, stuckLayer = true, h, l
			}
		}
	}
	if stuck {
		res.Stuck = true
		res.StuckSchedule = g.path(stuckH)
	}
	res.Recoverable = !res.Violation && !res.Stuck && !res.Fault
	return res, nil
}
