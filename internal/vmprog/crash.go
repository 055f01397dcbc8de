package vmprog

import (
	"context"
	"fmt"

	"priceadaptive/internal/tso"
)

// Crash models a crash-stop failure of process id, mirroring
// tso.Simulator.Crash on the fast engine: the write buffer and every
// volatile register are discarded, the in-flight fence and the passage
// position are forgotten, and the PC parks at the program's recover entry
// (pc 0 when the program has none, i.e. recovery re-runs the passage from
// the top). Committed shared memory persists. Crashing is legal for a
// started, non-done, non-crashed process; the next Step of the process
// executes its Recover transition.
func (e *Engine) Crash(s *State, id int) error {
	if id < 0 || id >= e.n {
		return errInvalidDecision
	}
	p := &s.Procs[id]
	if !p.Started || p.Done || p.Crashed {
		return errInvalidDecision
	}
	p.Buf = p.Buf[:0]
	p.Regs = [NumRegs]uint64{}
	p.Fencing = false
	p.InExit = false
	p.PC = e.prog.Recover
	p.Crashed = true
	p.CrashCount++
	s.Crashes++
	return nil
}

// CrashOpts bounds crash injection during crash-enabled exploration.
type CrashOpts struct {
	// MaxCrashes is the total crash budget over all processes; 0 disables
	// crash injection entirely.
	MaxCrashes int
	// MaxPerProc bounds the crashes of any single process; 0 means only
	// the total budget applies.
	MaxPerProc int
}

// crashDecisions appends the enabled crash decisions in s under o.
func (e *Engine) crashDecisions(s *State, o CrashOpts, out []tso.Decision) []tso.Decision {
	if o.MaxCrashes <= 0 || s.Crashes >= o.MaxCrashes {
		return out
	}
	for id := range s.Procs {
		p := &s.Procs[id]
		if !p.Started || p.Done || p.Crashed {
			continue
		}
		if o.MaxPerProc > 0 && p.CrashCount >= o.MaxPerProc {
			continue
		}
		out = append(out, tso.Decision{P: tso.ProcID(id), Crash: true})
	}
	return out
}

// EnabledDecisions enumerates every enabled scheduling decision in s:
// steps, commits, and - under a non-zero crash budget - crash decisions.
// It is the enumeration the crash-schedule search and the crash fuzzer
// drive the engine with.
func (e *Engine) EnabledDecisions(s *State, o CrashOpts) []tso.Decision {
	return e.crashDecisions(s, o, e.decisions(s, nil))
}

// RecovResult is the outcome of a crash-enabled recoverability check.
type RecovResult struct {
	// States and Transitions count the explored graph.
	States      int
	Transitions int
	// Complete reports that the check reached a verdict: either the full
	// crash-bounded state space was explored, or a decisive counterexample
	// (violation or post-crash fault) was found early. It is false only
	// when the state budget ran out first.
	Complete bool
	// Violation reports a mutual-exclusion violation (possibly requiring
	// crashes to provoke); ViolationSchedule reproduces it from the
	// initial state on an unreduced engine.
	Violation         bool
	ViolationSchedule []tso.Decision
	// Fault reports a post-crash runtime fault: re-executing the passage
	// against the crashed incarnation's committed protocol state escaped
	// the program's domain (e.g. a one-shot fetch-and-increment handing
	// out a slot index past its array). A fault is decisive
	// non-recoverability. FaultSchedule reproduces it: replaying on an
	// unreduced engine, the final decision fails with FaultErr.
	Fault         bool
	FaultErr      string
	FaultSchedule []tso.Decision
	// Stuck reports a reachable state from which no continuation completes
	// all passages - the post-crash livelock of a non-recoverable lock
	// (e.g. a TAS whose owner crashed while holding the committed lock
	// word). StuckSchedule drives an unreduced engine into such a state.
	Stuck         bool
	StuckSchedule []tso.Decision
	// Recoverable is the verdict: the exploration completed, exclusion
	// held in every reachable state, and every reachable state can still
	// complete every passage.
	Recoverable bool
}

// CheckRecoverable explores the crash-bounded state space exhaustively and
// decides recoverability: mutual exclusion must hold in every reachable
// state and every reachable state must be able to reach completion
// (AllDone). The second condition is the co-reachability check that
// separates recoverable locks from locks that merely never violate
// exclusion after a crash but wedge forever (a crashed TAS owner leaves
// the lock word set; every process spins).
//
// With pruning facts installed only the state normalizations are used
// (dead-register zeroing and symmetry canonicalization, both bisimulations
// that preserve co-reachability); ample-set reduction is never applied,
// because a process that can still crash re-enters through the recover
// section and invalidates the static future footprints - crash transitions
// are never independent of anything.
func (e *Engine) CheckRecoverable(ctx context.Context, maxStates int, o CrashOpts) (*RecovResult, error) {
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	res := &RecovResult{}
	r := e.red
	type node struct {
		st     *State
		parent int
		dec    tso.Decision // real-frame decision applied at the parent
		cum    []int        // real slot -> current slot; nil = identity
		done   bool
	}
	root, rootPerm := e.canon(e.Initial())
	nodes := []node{{st: root, parent: -1, cum: rootPerm}}
	seen := map[uint64]int{e.hash(root): 0}
	succs := [][]int{nil}
	// path reconstructs the real-frame schedule into node i.
	path := func(i int) []tso.Decision {
		var rev []tso.Decision
		for ; i > 0; i = nodes[i].parent {
			rev = append(rev, nodes[i].dec)
		}
		out := make([]tso.Decision, len(rev))
		for k := range rev {
			out[k] = rev[len(rev)-1-k]
		}
		return out
	}
	scratch := &State{}
	var decs []tso.Decision
	for i := 0; i < len(nodes); i++ {
		if i&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if e.Violated(nodes[i].st) {
			res.States = len(nodes)
			res.Complete = true
			res.Violation = true
			res.ViolationSchedule = path(i)
			return res, nil
		}
		if e.AllDone(nodes[i].st) {
			nodes[i].done = true
			continue
		}
		if len(nodes) > maxStates {
			res.States = len(nodes)
			return res, nil // Complete stays false: no verdict
		}
		st, cum := nodes[i].st, nodes[i].cum
		decs = e.crashDecisions(st, o, e.decisions(st, decs[:0]))
		for _, d := range decs {
			cc, perm, err := e.successor(scratch, st, d)
			if err != nil {
				if st.Crashes == 0 {
					// Crash-free faults are program bugs, not verdicts.
					return nil, fmt.Errorf("vmprog: recoverability check: %w", err)
				}
				res.States = len(nodes)
				res.Complete = true
				res.Fault = true
				res.FaultErr = err.Error()
				res.FaultSchedule = append(path(i), realDecision(r, d, cum))
				return res, nil
			}
			res.Transitions++
			h := e.hash(cc)
			j, ok := seen[h]
			if !ok {
				j = len(nodes)
				seen[h] = j
				nodes = append(nodes, node{st: keep(cc, scratch), parent: i, dec: realDecision(r, d, cum), cum: compose(perm, cum, e.n)})
				succs = append(succs, nil)
			}
			succs[i] = append(succs[i], j)
		}
	}
	res.States = len(nodes)
	res.Complete = true
	// Co-reachability of completion: reverse BFS from the AllDone states.
	preds := make([][]int, len(nodes))
	for i, ss := range succs {
		for _, j := range ss {
			preds[j] = append(preds[j], i)
		}
	}
	coreach := make([]bool, len(nodes))
	var queue []int
	for i := range nodes {
		if nodes[i].done {
			coreach[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		j := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, i := range preds[j] {
			if !coreach[i] {
				coreach[i] = true
				queue = append(queue, i)
			}
		}
	}
	for i := range nodes {
		if !coreach[i] {
			res.Stuck = true
			res.StuckSchedule = path(i)
			break
		}
	}
	res.Recoverable = !res.Violation && !res.Stuck && !res.Fault
	return res, nil
}
