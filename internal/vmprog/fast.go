package vmprog

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"priceadaptive/internal/tso"
)

// bufEnt is one buffered write in the fast engine.
type bufEnt struct {
	v int
	x uint64
}

// PState is the complete state of one process: flat, comparable-by-content,
// and cheap to clone. A started, unfinished process is always parked at an
// event instruction (its local register/jump instructions have already been
// applied), mirroring how the goroutine engine parks programs at their next
// posted operation.
type PState struct {
	PC      int
	Regs    [NumRegs]uint64
	Buf     []bufEnt
	Fencing bool
	Started bool
	Done    bool
	InExit  bool // CS executed, Exit pending at OpHalt
	// Crashed marks a crash-stopped process awaiting its Recover
	// transition: buffer and registers discarded, PC parked at the
	// program's recover entry. The next Step executes the recovery.
	Crashed bool
	// CrashCount is how many times this process has crashed, bounding
	// per-process crash budgets during crash-enabled exploration.
	CrashCount int
}

// BufLen returns the number of buffered, uncommitted writes.
func (p *PState) BufLen() int { return len(p.Buf) }

// BufVar returns the variable index of the i-th buffered write (0 is the
// oldest, the only write TSO may commit next).
func (p *PState) BufVar(i int) int { return p.Buf[i].v }

// BufVal returns the pending value of the i-th buffered write.
func (p *PState) BufVal(i int) uint64 { return p.Buf[i].x }

// State is a full machine state of the fast engine.
type State struct {
	Mem   []uint64
	Procs []PState
	// Crashes is the total number of crash transitions taken to reach
	// this state (the sum of the per-process CrashCounts), bounding the
	// total crash budget during crash-enabled exploration.
	Crashes int
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	ns := &State{
		Mem:     append([]uint64(nil), s.Mem...),
		Procs:   make([]PState, len(s.Procs)),
		Crashes: s.Crashes,
	}
	copy(ns.Procs, s.Procs)
	for i := range ns.Procs {
		ns.Procs[i].Buf = append([]bufEnt(nil), s.Procs[i].Buf...)
	}
	return ns
}

// overwrite makes s an exact copy of src while keeping s's own Mem, Procs
// and Buf backing arrays, so a scratch state reused for every successor of
// a parent allocates nothing once warm. s must not share a backing array
// with src or with any state kept elsewhere; Engine.successor and the
// exploration loops maintain this by building scratch states only from
// their own appends and storing clones, never the scratch itself.
func (s *State) overwrite(src *State) {
	s.Mem = append(s.Mem[:0], src.Mem...)
	if cap(s.Procs) < len(src.Procs) {
		s.Procs = make([]PState, len(src.Procs))
	}
	s.Procs = s.Procs[:len(src.Procs)]
	for i := range src.Procs {
		buf := s.Procs[i].Buf
		s.Procs[i] = src.Procs[i]
		s.Procs[i].Buf = append(buf[:0], src.Procs[i].Buf...)
	}
	s.Crashes = src.Crashes
}

// FactsVersion is the current PruneFacts schema version. The engine rejects
// facts carrying any other version with ErrStaleFacts: facts are cached
// (jobs artifact store, padlint) and a stale cached schema silently
// reinterpreted would be an unsoundness, not a degradation.
const FactsVersion = 2

// ErrStaleFacts reports pruning facts produced under a different
// PruneFacts schema version than the engine implements.
var ErrStaleFacts = errors.New("vmprog: pruning facts version mismatch")

// SymForm is an affine value map under a process permutation pi: a value x
// with (x-A)/B in [0,n) denotes "process (x-A)/B" and maps to
// A + B*pi((x-A)/B); every other value is a fixed point. B is +1 or -1 for
// a real form; B == 0 is the identity sentinel (the value carries no
// process identity). The same shape describes register values, variable
// contents, and array-cell indices.
type SymForm struct {
	A int64 `json:"a"`
	B int64 `json:"b"`
}

// Mapped reports whether the form denotes a real (non-identity) map.
func (f SymForm) Mapped() bool { return f.B != 0 }

// apply maps x under the permutation perm (perm[i] = image of process i).
func (f SymForm) apply(x uint64, perm []int) uint64 {
	if f.B == 0 {
		return x
	}
	m := (int64(x) - f.A) * f.B // B is +-1, so *B == /B
	if m < 0 || m >= int64(len(perm)) {
		return x
	}
	return uint64(f.A + f.B*int64(perm[m]))
}

// SymmetryFacts certify that the program is invariant under every
// permutation of process ids, together with the data needed to apply a
// permutation to a state: per-(pc,register), per-variable-value and
// per-variable-cell affine forms. They are only produced by the static
// scalarset discipline in internal/analysis/por, which fails closed: any
// instruction it cannot type as permutation-invariant voids the facts.
type SymmetryFacts struct {
	// RegForms[pc][r] transforms register r of a process parked at pc.
	RegForms [][]SymForm `json:"reg_forms"`
	// ValForms[v] transforms the value held by variable v (and by buffered
	// writes to v). Uniform across an array extent.
	ValForms []SymForm `json:"val_forms"`
	// CellForms[v] maps the *index* v to the cell that receives v's
	// content under the permutation (identity for scalars and
	// data-indexed arrays).
	CellForms []SymForm `json:"cell_forms"`
}

// PruneFacts are static facts about a program, computed by the analyzer in
// internal/analysis/por, that let the model checker merge equivalent
// interleavings. Every field is a *guarantee*: a wrong fact would make the
// exploration unsound, so facts are only produced by dataflow analyses
// whose soundness the differential tests in internal/check verify. Facts
// are instantiated for a concrete process count N (future footprints are
// per-process, symmetry is over S_N) and are JSON-serializable so they can
// be cached per program hash x n in the jobs artifact store.
type PruneFacts struct {
	// Version is the schema version (FactsVersion); UsePruning rejects
	// anything else with ErrStaleFacts.
	Version int `json:"version"`
	// N is the process count the facts were instantiated for.
	N int `json:"n"`
	// EmptyBufAt[pc] reports that the write buffer is provably empty
	// whenever a process is parked at pc: no path from the program's entry
	// to pc carries a write that is not followed by a fence or CAS.
	EmptyBufAt []bool `json:"empty_buf_at"`
	// VisibleAt[pc] reports that stepping a process parked at pc may
	// change the Violated predicate: the instruction is the CS itself, or
	// its continuation can park at the CS. Invisible steps are ample-set
	// candidates (condition C2).
	VisibleAt []bool `json:"visible_at"`
	// VisibleStart reports that starting a process can park it at the CS.
	VisibleStart bool `json:"visible_start"`
	// FutureReads[id*len(code)+pc] is a bitset (64 vars per word) of every
	// variable process id may still read at or after pc; FutureWrites the
	// same for writes (a CAS contributes to both). Indexed accesses whose
	// index register is statically affine in the process id are
	// instantiated exactly; anything else widens to the whole array
	// extent. Used for the static independence relation (condition C1).
	FutureReads  [][]uint64 `json:"future_reads"`
	FutureWrites [][]uint64 `json:"future_writes"`
	// LiveRegs[pc] is a bitmask of the registers live-in at pc (bit r set:
	// some path from pc uses register r before redefining it). Dead
	// registers are zeroed during canonicalization: states differing only
	// in junk a process will never read again are bisimilar.
	LiveRegs []uint16 `json:"live_regs"`
	// Symmetry is non-nil when the program is statically proven
	// permutation-invariant. It must only be applied together with
	// LiveRegs (dead registers may hold untransformable junk).
	Symmetry *SymmetryFacts `json:"symmetry,omitempty"`
}

// Engine executes a VM program under the TSO (or PSO) operational semantics
// with explicit, clonable state.
type Engine struct {
	prog  *Program
	n     int
	ord   tso.Ordering
	facts *PruneFacts
	red   *reducer
}

// NewEngineOrdering builds an engine for n processes under the given memory
// ordering (tso.TSO or tso.PSO; the zero Ordering defaults to TSO). This is
// the canonical constructor; NewEngine is a deprecated shim over it.
func NewEngineOrdering(p *Program, n int, ord tso.Ordering) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("vmprog: n must be positive, got %d", n)
	}
	switch ord {
	case 0:
		ord = tso.TSO
	case tso.TSO, tso.PSO:
	default:
		return nil, fmt.Errorf("vmprog: unknown memory ordering %d", int(ord))
	}
	return &Engine{prog: p, n: n, ord: ord}, nil
}

// NewEngine builds an engine for n processes. pso selects partial store
// ordering (out-of-order commits allowed).
//
// Deprecated: use NewEngineOrdering with tso.TSO or tso.PSO; the naked bool
// is unreadable at call sites and closed to further memory models.
func NewEngine(p *Program, n int, pso bool) (*Engine, error) {
	ord := tso.TSO
	if pso {
		ord = tso.PSO
	}
	return NewEngineOrdering(p, n, ord)
}

// Ordering returns the engine's memory-ordering model.
func (e *Engine) Ordering() tso.Ordering { return e.ord }

// UsePruning installs static pruning facts (see PruneFacts). Passing nil
// disables pruning. The facts must describe this engine's program at this
// engine's process count, and must carry the current schema version:
// version mismatches return ErrStaleFacts (wrapped) instead of being
// silently ignored, because stale cached facts reinterpreted under a new
// schema would corrupt the exploration rather than merely slow it down.
func (e *Engine) UsePruning(f *PruneFacts) error {
	if f == nil {
		e.facts = nil
		e.red = nil
		return nil
	}
	if f.Version != FactsVersion {
		return fmt.Errorf("%w: facts version %d, engine implements %d",
			ErrStaleFacts, f.Version, FactsVersion)
	}
	if f.N != e.n {
		return fmt.Errorf("vmprog: pruning facts instantiated for n=%d, engine has n=%d", f.N, e.n)
	}
	nc := len(e.prog.Code)
	if len(f.EmptyBufAt) != nc || len(f.VisibleAt) != nc || len(f.LiveRegs) != nc {
		return fmt.Errorf("vmprog: pruning facts cover %d/%d/%d instructions, program has %d",
			len(f.EmptyBufAt), len(f.VisibleAt), len(f.LiveRegs), nc)
	}
	if len(f.FutureReads) != e.n*nc || len(f.FutureWrites) != e.n*nc {
		return fmt.Errorf("vmprog: footprint tables cover %d/%d points, want %d",
			len(f.FutureReads), len(f.FutureWrites), e.n*nc)
	}
	if s := f.Symmetry; s != nil {
		if len(s.RegForms) != nc || len(s.ValForms) != len(e.prog.Vars) || len(s.CellForms) != len(e.prog.Vars) {
			return fmt.Errorf("vmprog: symmetry facts shaped %d/%d/%d, want %d/%d/%d",
				len(s.RegForms), len(s.ValForms), len(s.CellForms), nc, len(e.prog.Vars), len(e.prog.Vars))
		}
		for pc := range s.RegForms {
			if len(s.RegForms[pc]) != NumRegs {
				return fmt.Errorf("vmprog: symmetry reg forms at pc %d cover %d registers, want %d",
					pc, len(s.RegForms[pc]), NumRegs)
			}
		}
	}
	e.facts = f
	e.red = newReducer(e, f)
	return nil
}

// Program returns the program the engine executes.
func (e *Engine) Program() *Program { return e.prog }

// NumProcs returns the engine's process count.
func (e *Engine) NumProcs() int { return e.n }

// Initial returns the initial state: memory zeroed, no process started.
func (e *Engine) Initial() *State {
	return &State{
		Mem:   make([]uint64, len(e.prog.Vars)),
		Procs: make([]PState, e.n),
	}
}

// errInvalidDecision reports a decision that is not enabled in the state.
var errInvalidDecision = errors.New("vmprog: decision not enabled")

// advance executes register and control-flow instructions until the process
// parks at an event instruction or OpHalt. Local instructions are free in
// the memory model, exactly as Go code between two Proc calls runs inside
// the program goroutine on the goroutine engine.
func (e *Engine) advance(p *PState, id int) error {
	for {
		in := e.prog.Code[p.PC]
		switch in.Op {
		case OpConst:
			p.Regs[in.A] = in.Imm
		case OpMe:
			p.Regs[in.A] = uint64(id)
		case OpProcs:
			p.Regs[in.A] = uint64(e.n)
		case OpAdd:
			p.Regs[in.A] = p.Regs[in.B] + p.Regs[in.C]
		case OpSub:
			p.Regs[in.A] = p.Regs[in.B] - p.Regs[in.C]
		case OpJump:
			p.PC = in.Target
			continue
		case OpJumpIfEq:
			if p.Regs[in.A] == p.Regs[in.B] {
				p.PC = in.Target
				continue
			}
		case OpJumpIfNe:
			if p.Regs[in.A] != p.Regs[in.B] {
				p.PC = in.Target
				continue
			}
		case OpJumpIfLt:
			if p.Regs[in.A] < p.Regs[in.B] {
				p.PC = in.Target
				continue
			}
		default:
			// Event instruction or Halt: park here.
			return nil
		}
		p.PC++
	}
}

// bufLookup returns the pending buffered write to variable vi, if any.
func bufLookup(p *PState, vi int) (uint64, bool) {
	for i := range p.Buf {
		if p.Buf[i].v == vi {
			return p.Buf[i].x, true
		}
	}
	return 0, false
}

// bufPush coalesces a write into the buffer (TSO: one entry per variable).
func bufPush(p *PState, vi int, x uint64) {
	for i := range p.Buf {
		if p.Buf[i].v == vi {
			p.Buf[i].x = x
			return
		}
	}
	p.Buf = append(p.Buf, bufEnt{v: vi, x: x})
}

// commitAt makes the i-th buffered write visible.
func commitAt(s *State, p *PState, i int) {
	w := p.Buf[i]
	s.Mem[w.v] = w.x
	p.Buf = append(p.Buf[:i], p.Buf[i+1:]...)
}

// Step lets process id execute its next event, mirroring
// tso.Simulator.Step: Enter for an unstarted process, a commit while
// fencing (or draining for a CAS) with a non-empty buffer, otherwise the
// parked event instruction.
func (e *Engine) Step(s *State, id int) error {
	if id < 0 || id >= e.n {
		return errInvalidDecision
	}
	p := &s.Procs[id]
	if p.Done {
		return errInvalidDecision
	}
	if !p.Started {
		p.Started = true
		return e.advance(p, id)
	}
	if p.Crashed {
		// The Recover transition: the crash already discarded the volatile
		// state and parked the PC at the recover entry; recovery resumes
		// execution there, mirroring tso.Simulator's applyRecover.
		p.Crashed = false
		return e.advance(p, id)
	}
	if p.Fencing {
		if len(p.Buf) > 0 {
			commitAt(s, p, 0)
			return nil
		}
		// EndFence.
		p.Fencing = false
		p.PC++
		return e.advance(p, id)
	}
	in := e.prog.Code[p.PC]
	switch in.Op {
	case OpRead:
		vi, err := e.prog.varIndex(in, &p.Regs)
		if err != nil {
			return err
		}
		if x, ok := bufLookup(p, vi); ok {
			p.Regs[in.A] = x
		} else {
			p.Regs[in.A] = s.Mem[vi]
		}
		p.PC++
		return e.advance(p, id)
	case OpWrite:
		vi, err := e.prog.varIndex(in, &p.Regs)
		if err != nil {
			return err
		}
		bufPush(p, vi, p.Regs[in.A])
		p.PC++
		return e.advance(p, id)
	case OpFence:
		p.Fencing = true
		return nil
	case OpCAS:
		if len(p.Buf) > 0 {
			// Serializing: drain the buffer first, one commit per step.
			commitAt(s, p, 0)
			return nil
		}
		vi, err := e.prog.varIndex(in, &p.Regs)
		if err != nil {
			return err
		}
		observed := s.Mem[vi]
		if observed == p.Regs[in.B] {
			s.Mem[vi] = p.Regs[in.C]
		}
		p.Regs[in.A] = observed
		p.PC++
		return e.advance(p, id)
	case OpCS:
		p.InExit = true
		p.PC++
		return e.advance(p, id)
	case OpHalt:
		p.Done = true
		return nil
	default:
		return fmt.Errorf("vmprog: parked at non-event instruction %d", int(in.Op))
	}
}

// Commit makes a buffered write of process id visible. varIdx selects the
// variable (PSO); pass -1 for the oldest write (the only legal choice under
// TSO). Like tso.Simulator.Commit it is also legal while the process is
// executing a fence (the adversary committing on the process's behalf).
func (e *Engine) Commit(s *State, id int, varIdx int) error {
	p := &s.Procs[id]
	if len(p.Buf) == 0 {
		return errInvalidDecision
	}
	if varIdx < 0 || p.Buf[0].v == varIdx {
		commitAt(s, p, 0)
		return nil
	}
	if e.ord != tso.PSO {
		return fmt.Errorf("vmprog: out-of-order commit requires PSO")
	}
	for i := range p.Buf {
		if p.Buf[i].v == varIdx {
			commitAt(s, p, i)
			return nil
		}
	}
	return errInvalidDecision
}

// PendingCS reports whether process id's next event is the CS transition.
// A crashed process has no pending CS: its next transition is the Recover,
// and per the RME setting a crash-stopped process is not in its critical
// section.
func (e *Engine) PendingCS(s *State, id int) bool {
	p := &s.Procs[id]
	if !p.Started || p.Done || p.Fencing || p.Crashed {
		return false
	}
	return e.prog.Code[p.PC].Op == OpCS
}

// Violated reports whether two CS events are simultaneously enabled (the
// paper's exclusion failure).
func (e *Engine) Violated(s *State) bool {
	count := 0
	for id := range s.Procs {
		if e.PendingCS(s, id) {
			count++
		}
	}
	return count >= 2
}

// AllDone reports whether every process completed its passage.
func (e *Engine) AllDone(s *State) bool {
	for i := range s.Procs {
		if !s.Procs[i].Done {
			return false
		}
	}
	return true
}

// Apply executes a tso.Decision on the state, for replaying schedules
// recorded against the goroutine engine.
func (e *Engine) Apply(s *State, d tso.Decision) error {
	if d.Crash {
		return e.Crash(s, int(d.P))
	}
	if d.Commit {
		varIdx := -1
		if d.VarPlus1 > 0 {
			varIdx = d.VarPlus1 - 1
		}
		return e.Commit(s, int(d.P), varIdx)
	}
	return e.Step(s, int(d.P))
}

// successor computes the canonical successor of parent under d without
// cloning: scratch is overwritten from parent, d is applied to it, and the
// result is canonicalized in place. The returned state is scratch itself or,
// under symmetry, a fresh state built by the canonicalizer; either way it is
// only valid until scratch is next used, and keep turns it into a state the
// caller may store. parent is not modified.
func (e *Engine) successor(scratch, parent *State, d tso.Decision) (*State, []int, error) {
	scratch.overwrite(parent)
	if err := e.Apply(scratch, d); err != nil {
		return nil, nil, err
	}
	cc, perm := e.canon(scratch)
	return cc, perm, nil
}

// canon maps a freshly produced state to its canonical representative plus
// the permutation applied (nil perm = identity); s is consumed.
func (e *Engine) canon(s *State) (*State, []int) {
	if e.red == nil {
		return s, nil
	}
	return e.red.canonicalize(s)
}

// expansion holds one exploration thread's reusable per-transition buffers:
// the scratch states successors are built in (one per ample decision), the
// decision list, and the ample successors with their permutations and
// hashes while the proviso is checked. Its contents are valid only during
// the expansion of one state.
type expansion struct {
	scratch []*State
	decs    []tso.Decision
	kids    []*State
	perms   [][]int
	hs      []uint64
}

// scratchAt returns the i-th scratch state.
func (x *expansion) scratchAt(i int) *State {
	for len(x.scratch) <= i {
		x.scratch = append(x.scratch, &State{})
	}
	return x.scratch[i]
}

// ample tries singleton-process ample expansion of st (pruning facts must
// be installed): it builds the successors under the ample process's
// decisions into x.decs, x.kids, x.perms and x.hs, and reports whether an
// ample process exists and no successor trips the cycle proviso. The caller
// expands st fully when it reports false.
func (x *expansion) ample(e *Engine, st *State, proviso func(h uint64) bool) (bool, error) {
	id, ok := e.ampleProcess(st)
	if !ok {
		return false, nil
	}
	x.decs = e.procDecisions(st, id, x.decs[:0])
	x.kids, x.perms, x.hs = x.kids[:0], x.perms[:0], x.hs[:0]
	tripped := false
	for i, d := range x.decs {
		cc, perm, err := e.successor(x.scratchAt(i), st, d)
		if err != nil {
			return false, err
		}
		h := e.hash(cc)
		x.kids, x.perms, x.hs = append(x.kids, cc), append(x.perms, perm), append(x.hs, h)
		if proviso(h) {
			tripped = true
		}
	}
	return !tripped, nil
}

// keep returns a state that may outlive scratch: a clone when st is the
// scratch state successor wrote into, st itself when the canonicalizer
// already built it fresh.
func keep(st, scratch *State) *State {
	if st == scratch {
		return st.Clone()
	}
	return st
}

// Hash fingerprints a state, for callers (like the crash-schedule search)
// that deduplicate their own frontiers. It is the hash every exploration
// engine keys its seen-set with. Equal states hash equal, whatever the
// capacity of their buffers and whether an empty buffer is nil; collisions
// are possible, so it must not substitute for equality where soundness
// depends on it.
func (e *Engine) Hash(s *State) uint64 { return e.hash(s) }

// Word-hash constants: the xxHash64 primes.
const (
	hashPrime1 = 0x9e3779b185ebca87
	hashPrime2 = 0xc2b2ae3d27d4eb4f
)

// hashWord folds one word into the running hash with the xxHash64 round.
// For a fixed running hash it is a bijection of the word, and for a fixed
// word a bijection of the running hash.
func hashWord(h, x uint64) uint64 {
	return bits.RotateLeft64(h+x*hashPrime2, 31) * hashPrime1
}

// hash fingerprints a state in one allocation-free pass over exactly the
// words encode emits (memory, then per process pflags, registers, buffer
// length and buffered writes), finished by the splitmix64 finalizer so
// every input bit reaches every output bit.
func (e *Engine) hash(s *State) uint64 {
	h := uint64(hashPrime1)
	for _, m := range s.Mem {
		h = hashWord(h, m)
	}
	for i := range s.Procs {
		p := &s.Procs[i]
		h = hashWord(h, pflags(p))
		for _, r := range p.Regs {
			h = hashWord(h, r)
		}
		h = hashWord(h, uint64(len(p.Buf)))
		for _, b := range p.Buf {
			h = hashWord(h, uint64(b.v))
			h = hashWord(h, b.x)
		}
	}
	return mix64(h)
}

// pflags packs a process's scheduling-relevant booleans, PC and crash
// budget into one word, shared by the state hash and the canonicalizer's
// flat encoding so the two never disagree on state identity. CrashCount is
// part of state identity: the remaining per-process crash budget
// determines which crash transitions are enabled.
func pflags(p *PState) uint64 {
	flags := uint64(p.CrashCount)<<32 | uint64(p.PC)<<5
	if p.Fencing {
		flags |= 1
	}
	if p.Started {
		flags |= 2
	}
	if p.Done {
		flags |= 4
	}
	if p.InExit {
		flags |= 8
	}
	if p.Crashed {
		flags |= 16
	}
	return flags
}

// CheckResult summarizes an exhaustive exploration by the fast engine.
type CheckResult struct {
	// States is the number of distinct states visited.
	States int
	// Transitions is the number of decisions applied.
	Transitions int
	// Complete reports whether the full reachable state space was
	// explored.
	Complete bool
	// Violation reports whether an exclusion violation was found.
	Violation bool
	// Schedule reproduces the violation (also applicable to the goroutine
	// engine via the same decisions).
	Schedule []tso.Decision
	// AmpleSteps counts states where the reduction restricted expansion to
	// a single process's transitions (0 without UsePruning).
	AmpleSteps int
	// Probabilistic reports that the exploration used bitstate hashing
	// (ParallelOpts.BitstateBits): distinct states may have been merged by
	// hash collision, so Complete && !Violation is strong evidence of
	// correctness, not proof. A Violation and its Schedule remain exact.
	// Callers must never report a probabilistic pass as an exact verdict.
	Probabilistic bool
	// crossShard counts successors routed to a different seen-set shard
	// than their parent's (0 for the sequential engine); the shard-routing
	// tests use it to force and observe cross-shard handoff.
	crossShard int
}

// Check explores the reachable state space exhaustively (bounded by
// maxStates) and reports the first exclusion violation. Unlike the
// replay-based checker in package check, states are true snapshots: spin
// loops revisit identical states and the exploration terminates without any
// spin-collapsing heuristic. Cancelling ctx aborts the exploration with the
// context's error.
//
// With pruning facts installed (UsePruning) the exploration is reduced but
// verdict-equivalent: at each state an ample process - one whose every
// enabled transition is invisible and statically independent of every
// other process's future - is expanded alone (conditions C0-C2), unless
// one of its successors was already visited, in which case the state is
// fully expanded (the visited-proviso discharging condition C3: every
// cycle of the reduced graph contains a fully expanded state). When the
// facts additionally carry liveness masks and symmetry forms, successor
// states are canonicalized - dead registers zeroed, then the
// lexicographically minimal representative under all process permutations
// - and exploration continues from the canonical state; recorded schedule
// decisions are translated back through the accumulated permutation so
// Schedule always replays against an unreduced engine from the true
// initial state.
func (e *Engine) Check(ctx context.Context, maxStates int) (*CheckResult, error) {
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	res := &CheckResult{Complete: true}
	r := e.red
	seen := make(map[uint64]bool)
	type node struct {
		st   *State
		path []tso.Decision // decisions in the real (initial) frame
		cum  []int          // real slot -> current slot; nil = identity
	}
	root, rootPerm := e.canon(e.Initial())
	seen[e.hash(root)] = true
	res.States = 1
	stack := []node{{st: root, cum: rootPerm}}
	// Successors are computed in scratch states and cloned only when pushed.
	var x expansion
	// push records the child reached from nd by d (in nd's frame) and
	// pushes it if unseen.
	push := func(nd *node, d tso.Decision, child *State, h uint64, perm []int, sc *State) {
		if seen[h] {
			return
		}
		seen[h] = true
		res.States++
		path := make([]tso.Decision, len(nd.path)+1)
		copy(path, nd.path)
		path[len(nd.path)] = realDecision(r, d, nd.cum)
		stack = append(stack, node{st: keep(child, sc), path: path, cum: compose(perm, nd.cum, e.n)})
	}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if res.States&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if e.Violated(nd.st) {
			res.Violation = true
			res.Schedule = nd.path
			res.Complete = false
			return res, nil
		}
		if res.States > maxStates {
			res.Complete = false
			return res, nil
		}
		if r != nil {
			// C3 visited-proviso: an ample successor that was already
			// visited could close a cycle along which other processes are
			// ignored forever; expand the state fully instead.
			ok, err := x.ample(e, nd.st, func(h uint64) bool { return seen[h] })
			if err != nil {
				return nil, fmt.Errorf("vmprog: check: %w", err)
			}
			if ok {
				res.AmpleSteps++
				res.Transitions += len(x.decs)
				for i, d := range x.decs {
					push(&nd, d, x.kids[i], x.hs[i], x.perms[i], x.scratch[i])
				}
				continue
			}
		}
		x.decs = e.decisions(nd.st, x.decs[:0])
		sc := x.scratchAt(0)
		for _, d := range x.decs {
			cc, perm, err := e.successor(sc, nd.st, d)
			if err != nil {
				return nil, fmt.Errorf("vmprog: check: %w", err)
			}
			res.Transitions++
			push(&nd, d, cc, e.hash(cc), perm, sc)
		}
	}
	return res, nil
}

// decisions appends the enabled scheduling decisions in a state to out.
func (e *Engine) decisions(s *State, out []tso.Decision) []tso.Decision {
	for id := range s.Procs {
		out = e.procDecisions(s, id, out)
	}
	return out
}

// procDecisions appends process id's enabled decisions to out.
func (e *Engine) procDecisions(s *State, id int, out []tso.Decision) []tso.Decision {
	p := &s.Procs[id]
	if !p.Done {
		out = append(out, tso.Decision{P: tso.ProcID(id)})
	}
	if len(p.Buf) > 0 && !p.Fencing {
		if e.ord == tso.PSO {
			for _, b := range p.Buf {
				out = append(out, tso.Decision{P: tso.ProcID(id), Commit: true, VarPlus1: b.v + 1})
			}
		} else {
			out = append(out, tso.Decision{P: tso.ProcID(id), Commit: true})
		}
	}
	return out
}

// Minimize shrinks a violating schedule to a 1-minimal reproduction using
// the fast engine (the counterpart of check.Minimize, hundreds of times
// faster because candidate evaluation is a pure state replay).
func (e *Engine) Minimize(sched []tso.Decision) ([]tso.Decision, error) {
	reproduces := func(cand []tso.Decision) bool {
		st := e.Initial()
		for _, d := range cand {
			if err := e.Apply(st, d); err != nil {
				return false
			}
			if e.Violated(st) {
				return true
			}
		}
		return e.Violated(st)
	}
	cur := append([]tso.Decision(nil), sched...)
	if !reproduces(cur) {
		return nil, errors.New("vmprog: schedule does not reproduce a violation")
	}
	// Trim the suffix after the violation.
	lo, hi := 0, len(cur)
	for lo < hi {
		mid := (lo + hi) / 2
		if reproduces(cur[:mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	cur = cur[:lo]
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := make([]tso.Decision, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if reproduces(cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	return cur, nil
}
