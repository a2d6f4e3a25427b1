package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cwsp/internal/ir"
)

// This file is the threaded-code kernel, the production RunUntil
// implementation. It is behavior-identical to the reference stepper
// (reference.go) — the simtest differential harness and the equivalence
// fuzz targets enforce byte-identical results, stats, crash states,
// recovery outcomes, telemetry, and trace streams.
//
// Instead of decoding every instruction through a switch, this backend
// translates each function ONCE, at first run, into a flat array of
// specialized closures:
//
//   - one closure per instruction, chosen by (opcode, operand shape) at
//     translation time, with register numbers, immediates, offsets, and
//     branch targets pre-resolved into the closure's captured variables;
//   - blocks flattened into a single code array per function, so a
//     branch is "return the precomputed flat index" and the run loop is
//     `fpc = code[fpc](m, c, f)` — no switch, no operand decode, no
//     block/pc indirection on the hot path;
//   - adjacent compare+branch pairs fused into one closure (the dominant
//     loop-control idiom in compiled programs), with the driver's stop
//     conditions re-checked between the two halves so the pair remains
//     interruptible at exactly the same points as the unfused sequence.
//
// Scheduling is batched: instead of rescanning every core per
// instruction, the driver picks the minimum-(cycle, id) runnable core once
// and steps it for as long as it stays strictly below the next core's
// (cycle, id). While one core steps no other core's cycle moves, so every
// one of those steps is exactly the core the reference scan would pick.
//
// The only per-instruction probe, the telemetry sampler, is a monotone
// cycle threshold like the crash cycle, so the two fold into one stop
// cycle (tcStop): superblocks and fused pairs never run across it, and
// the driver takes each due sample exactly where the reference stepper
// does — after the instruction is counted, before it executes.
//
// Frame state is maintained lazily: straight-line and branch closures
// never write f.blk/f.pc; only the closures that call into shared
// machinery which reads them (boundary, call, sync group) materialize
// them first, and the driver writes them back from the flat index when
// it stops — so a crash freezes byte-identical frame state.
//
// Rare control transfers (call/ret, and anything that changes the frame
// stack) return tcResync and the driver re-derives (frame, code array,
// flat pc); everything else stays in the flat loop. All persist, region,
// and call machinery is shared with the reference stepper (machine.go),
// so both kernels have one definition of every memory-system path.
//
// Translation is cached per program behind a sync.Once, keyed by the
// program pointer plus the process-wide code-version salt (the runner's
// ResultsSalt, injected via SetCodeSalt): bumping the salt — the same
// act that invalidates on-disk cell caches — also drops compiled code.

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// tOp executes one instruction and returns the next flat code index, or
// tcResync if the frame stack changed (call/ret) or the driver must
// re-evaluate its stop conditions (fused pair interrupted, core done).
type tOp func(m *Machine, c *core, f *frame) int

// tcResync tells the driver to re-derive (frame, tFunc, flat pc) from
// the core's frame stack before continuing.
const tcResync = -1

// tFunc is one translated function: its blocks flattened into code, with
// base mapping block index -> first flat index and loc mapping flat
// index -> (block, index) for frame-state writeback.
type tFunc struct {
	code []tOp
	base []int
	loc  []ir.InstrRef
}

// tProg is one translated program.
type tProg struct {
	fns map[*ir.Function]*tFunc
}

// --- translation cache ------------------------------------------------------

// tcacheMax bounds the process-wide cache so long-lived daemons (cwspd)
// running unbounded streams of generated programs cannot leak compiled
// code; overflowing flushes the whole map (entries in flight still
// complete through their own entry pointers).
const tcacheMax = 256

type tcacheEntry struct {
	once sync.Once
	tp   *tProg
}

var (
	tcacheMu   sync.Mutex
	tcacheSalt string
	tcache     = map[*ir.Program]*tcacheEntry{}
	// tcompiles counts actual translations (not cache hits); the simtest
	// race test pins "two concurrent first runs, one compile".
	tcompiles atomic.Int64
)

// SetCodeSalt keys the translation cache to a code-version salt (the
// runner injects bench.ResultsSalt). Changing the salt drops every
// cached translation, mirroring how the on-disk cell cache treats the
// salt as part of every key.
func SetCodeSalt(salt string) {
	tcacheMu.Lock()
	defer tcacheMu.Unlock()
	if salt == tcacheSalt {
		return
	}
	tcacheSalt = salt
	tcache = map[*ir.Program]*tcacheEntry{}
}

// threadedFor returns the cached translation of p, translating at most
// once per (program, salt) across all machines and goroutines.
func threadedFor(p *ir.Program) *tProg {
	tcacheMu.Lock()
	e := tcache[p]
	if e == nil {
		if len(tcache) >= tcacheMax {
			tcache = map[*ir.Program]*tcacheEntry{}
		}
		e = &tcacheEntry{}
		tcache[p] = e
	}
	tcacheMu.Unlock()
	e.once.Do(func() {
		tcompiles.Add(1)
		e.tp = translateProgram(p)
	})
	return e.tp
}

// threaded returns this machine's translation, resolving the cache once.
func (m *Machine) threaded() *tProg {
	if m.tc == nil {
		m.tc = threadedFor(m.Prog)
	}
	return m.tc
}

// --- translation ------------------------------------------------------------

func translateProgram(p *ir.Program) *tProg {
	tp := &tProg{fns: make(map[*ir.Function]*tFunc, len(p.Funcs))}
	for _, fn := range p.Funcs {
		tp.fns[fn] = translateFunc(fn)
	}
	return tp
}

func translateFunc(fn *ir.Function) *tFunc {
	tf := &tFunc{base: make([]int, len(fn.Blocks))}
	n := 0
	for bi, b := range fn.Blocks {
		tf.base[bi] = n
		n += len(b.Instrs)
	}
	tf.code = make([]tOp, n)
	tf.loc = make([]ir.InstrRef, n)
	for bi, b := range fn.Blocks {
		for ii := range b.Instrs {
			flat := tf.base[bi] + ii
			tf.loc[flat] = ir.InstrRef{Block: bi, Index: ii}
			tf.code[flat] = tf.translate(fn, bi, ii)
		}
	}
	// Superinstruction pass: fuse compare+branch pairs. The branch slot
	// keeps its standalone closure — control can still enter there (a
	// run stopped between the halves resumes at the branch).
	fused := make([]bool, n)
	for bi, b := range fn.Blocks {
		for ii := 0; ii+1 < len(b.Instrs); ii++ {
			if op := tf.fuseCmpBr(fn, bi, ii); op != nil {
				tf.code[tf.base[bi]+ii] = op
				fused[tf.base[bi]+ii] = true
			}
		}
	}
	tf.buildSuperblocks(fn, fused)
	return tf
}

// tSimple reports whether the instruction is a pure register op with a
// fixed one-cycle advance: its closure only writes f.regs and c.cycle
// and falls through to the next slot. These are the ops a superblock
// may execute back to back under one amortized stop-condition check.
func tSimple(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpConst, ir.OpMov, ir.OpSelect,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
		return true
	}
	return false
}

// buildSuperblocks replaces the first slot of every straight-line run
// (>= 1 simple ops plus the following instruction as a tail, all within
// one block) with a closure that checks the driver's stop conditions
// once for the whole run and then executes the members back to back.
// This is where threaded code wins big: the per-instruction driver
// bookkeeping (bound compare, MaxSteps check, two stat increments, live
// trigger) collapses to one check per run.
//
// Equivalence argument: between simple ops nothing externally observable
// happens (registers and the cycle counter only), so the reference
// stepper's per-instruction checks can be evaluated in advance — the
// cycle advances exactly one per member before the tail, and the stop
// predicate is monotone in the cycle, so checking it at the last
// pre-tail cycle covers every intermediate one. If the run does not
// provably fit (crash, scheduling bound, or MaxSteps could trip
// mid-run), the closure executes only the admissible prefix and returns to
// the driver, which proceeds instruction by instruction through the
// members' own untouched slots — byte-identical stops, errors, and
// frozen frames.
// tMaxRun caps superblock length: a bounded run both limits how much
// cycle headroom the single up-front check demands (keeping the fast
// path hot in tightly bounded multicore batches) and bounds how late a
// live progress report can fire.
const tMaxRun = 24

// tBare builds the register-effect-only form of a simple op (tSimple),
// specialized on its operand shape (both immediates fold at translation
// time, shifts are pre-masked): no cycle accounting, no successor index.
// Superblock bodies run these back to back, advancing cycle and
// instruction counters in bulk — the counters are unobservable between
// pure register ops, so only the totals the tail and the driver see must
// match the reference stepper. A simple op's own slot wraps its bare body
// with the one-cycle advance.
func tBare(in *ir.Instr) func(*frame) {
	dst := in.Dst
	switch in.Op {
	case ir.OpConst:
		v := in.A.Imm
		return func(f *frame) { f.regs[dst] = v }
	case ir.OpMov:
		if in.A.IsImm() {
			v := in.A.Imm
			return func(f *frame) { f.regs[dst] = v }
		}
		a := in.A.Reg
		return func(f *frame) { f.regs[dst] = f.regs[a] }
	case ir.OpSelect:
		b, cc := in.B, in.C
		if in.A.IsImm() {
			picked := cc
			if in.A.Imm != 0 {
				picked = b
			}
			if picked.IsImm() {
				v := picked.Imm
				return func(f *frame) { f.regs[dst] = v }
			}
			a := picked.Reg
			return func(f *frame) { f.regs[dst] = f.regs[a] }
		}
		a := in.A.Reg
		return func(f *frame) {
			regs := f.regs
			if regs[a] != 0 {
				regs[dst] = opVal(b, regs)
			} else {
				regs[dst] = opVal(cc, regs)
			}
		}
	}
	op, a, b := in.Op, in.A, in.B
	if a.IsImm() && b.IsImm() {
		v := aluEval(op, a.Imm, b.Imm)
		return func(f *frame) { f.regs[dst] = v }
	}
	if a.IsImm() {
		av, br := a.Imm, b.Reg
		return func(f *frame) { f.regs[dst] = aluEval(op, av, f.regs[br]) }
	}
	ar := a.Reg
	if b.IsImm() {
		bv := b.Imm
		switch op {
		case ir.OpAdd:
			return func(f *frame) { f.regs[dst] = f.regs[ar] + bv }
		case ir.OpSub:
			return func(f *frame) { f.regs[dst] = f.regs[ar] - bv }
		case ir.OpMul:
			return func(f *frame) { f.regs[dst] = f.regs[ar] * bv }
		case ir.OpAnd:
			return func(f *frame) { f.regs[dst] = f.regs[ar] & bv }
		case ir.OpOr:
			return func(f *frame) { f.regs[dst] = f.regs[ar] | bv }
		case ir.OpXor:
			return func(f *frame) { f.regs[dst] = f.regs[ar] ^ bv }
		case ir.OpShl:
			sh := uint64(bv) & 63
			return func(f *frame) { f.regs[dst] = f.regs[ar] << sh }
		case ir.OpShr:
			sh := uint64(bv) & 63
			return func(f *frame) { f.regs[dst] = int64(uint64(f.regs[ar]) >> sh) }
		case ir.OpCmpEQ:
			return func(f *frame) { f.regs[dst] = b2i(f.regs[ar] == bv) }
		case ir.OpCmpNE:
			return func(f *frame) { f.regs[dst] = b2i(f.regs[ar] != bv) }
		case ir.OpCmpLT:
			return func(f *frame) { f.regs[dst] = b2i(f.regs[ar] < bv) }
		case ir.OpCmpLE:
			return func(f *frame) { f.regs[dst] = b2i(f.regs[ar] <= bv) }
		case ir.OpCmpGT:
			return func(f *frame) { f.regs[dst] = b2i(f.regs[ar] > bv) }
		case ir.OpCmpGE:
			return func(f *frame) { f.regs[dst] = b2i(f.regs[ar] >= bv) }
		default:
			return func(f *frame) { f.regs[dst] = aluEval(op, f.regs[ar], bv) }
		}
	}
	br := b.Reg
	switch op {
	case ir.OpAdd:
		return func(f *frame) { regs := f.regs; regs[dst] = regs[ar] + regs[br] }
	case ir.OpSub:
		return func(f *frame) { regs := f.regs; regs[dst] = regs[ar] - regs[br] }
	case ir.OpMul:
		return func(f *frame) { regs := f.regs; regs[dst] = regs[ar] * regs[br] }
	case ir.OpAnd:
		return func(f *frame) { regs := f.regs; regs[dst] = regs[ar] & regs[br] }
	case ir.OpOr:
		return func(f *frame) { regs := f.regs; regs[dst] = regs[ar] | regs[br] }
	case ir.OpXor:
		return func(f *frame) { regs := f.regs; regs[dst] = regs[ar] ^ regs[br] }
	case ir.OpCmpEQ:
		return func(f *frame) { regs := f.regs; regs[dst] = b2i(regs[ar] == regs[br]) }
	case ir.OpCmpNE:
		return func(f *frame) { regs := f.regs; regs[dst] = b2i(regs[ar] != regs[br]) }
	case ir.OpCmpLT:
		return func(f *frame) { regs := f.regs; regs[dst] = b2i(regs[ar] < regs[br]) }
	case ir.OpCmpLE:
		return func(f *frame) { regs := f.regs; regs[dst] = b2i(regs[ar] <= regs[br]) }
	case ir.OpCmpGT:
		return func(f *frame) { regs := f.regs; regs[dst] = b2i(regs[ar] > regs[br]) }
	case ir.OpCmpGE:
		return func(f *frame) { regs := f.regs; regs[dst] = b2i(regs[ar] >= regs[br]) }
	default:
		return func(f *frame) { regs := f.regs; regs[dst] = aluEval(op, regs[ar], regs[br]) }
	}
}

func (tf *tFunc) buildSuperblocks(fn *ir.Function, fused []bool) {
	for bi, b := range fn.Blocks {
		for ii := 0; ii < len(b.Instrs); {
			start := tf.base[bi] + ii
			// A fused compare consumes two instructions and already has
			// its own mid-pair check; skip past the pair.
			if fused[start] {
				ii += 2
				continue
			}
			if !tSimple(&b.Instrs[ii]) {
				ii++
				continue
			}
			s := ii
			for s < len(b.Instrs) && tSimple(&b.Instrs[s]) && !fused[tf.base[bi]+s] {
				s++
			}
			// Chunk long runs: a shorter run is far more likely to fit
			// inside a bounded multicore batch (fast path taken), and the
			// last segment absorbs the first non-simple slot as its tail.
			for seg := ii; seg < s; {
				segLen := s - seg
				if segLen > tMaxRun {
					segLen = tMaxRun
				}
				k := segLen
				if seg+segLen == s && s < len(b.Instrs) {
					k++ // one tail: the first non-simple (or fused) slot
				}
				if k >= 2 {
					st := tf.base[bi] + seg
					bares := make([]func(*frame), k-1)
					for j := 0; j < k-1; j++ {
						bares[j] = tBare(&b.Instrs[seg+j])
					}
					tf.code[st] = superRun(bares, tf.code[st+k-1], st, k)
				}
				seg += segLen
			}
			ii = s + 1
		}
	}
}

// superRun builds the run closure. The driver has counted and checked
// the first member when this runs; the closure accounts for the
// remaining k-1 instructions and the body's cycles in bulk (no bare op
// reads the counters, and the tail — which may: a fused pair's
// mid-check, a sync group's trailing ops — sees exactly the counts the
// reference stepper would have), executes the k-1 bare bodies, then hands
// off to the tail's full closure for the run's last instruction.
//
// When the whole run does not provably fit (crash or telemetry sample,
// scheduling bound, or MaxSteps would trip mid-run), the closure executes
// exactly the prefix the stop predicate allows — the predicate is
// monotone in the cycle, and one cycle per member means the largest
// admissible prefix is a subtraction — and parks on the next member's own
// untouched slot, so the driver observes the identical stop point, frozen
// frame, sample, or MaxSteps error the reference stepper would produce.
// This keeps tightly
// bounded multicore batches fast: one dispatch per batch segment
// instead of one per instruction.
func superRun(bares []func(*frame), tail tOp, start, k int) tOp {
	rest := int64(k - 1)
	return func(m *Machine, c *core, f *frame) int {
		x := c.cycle + rest
		if x < m.tcStop && (x < m.tcBound || (x == m.tcBound && c.id < m.tcBoundID)) &&
			m.stats.Instrs+rest-1 < m.Cfg.MaxSteps {
			m.stats.Instrs += rest
			c.instrs += rest
			c.cycle += rest
			for _, g := range bares {
				g(f)
			}
			return tail(m, c, f)
		}
		// Partial run: the driver approved member 1, so at least one
		// member executes; maxX is the last cycle at which an instruction
		// still dispatches without a stop, sample, or scheduling switch.
		maxX := m.tcBound - 1
		if c.id < m.tcBoundID {
			maxX = m.tcBound
		}
		if m.tcStop-1 < maxX {
			maxX = m.tcStop - 1
		}
		j := maxX - c.cycle + 1
		if lim := m.Cfg.MaxSteps - m.stats.Instrs + 1; lim < j {
			j = lim
		}
		if int64(k-1) < j {
			j = int64(k - 1)
		}
		m.stats.Instrs += j - 1
		c.instrs += j - 1
		c.cycle += j
		for _, g := range bares[:j] {
			g(f)
		}
		return start + int(j)
	}
}

// translate builds the specialized closure for one instruction. The
// sequencing inside each closure replicates the reference stepper's
// (reference.go) arm for arm: the driver has already done the MaxSteps
// check, counted the instruction, and taken any due sample when a closure
// runs.
func (tf *tFunc) translate(fn *ir.Function, bi, ii int) tOp {
	in := &fn.Blocks[bi].Instrs[ii]
	next := tf.base[bi] + ii + 1
	dst := in.Dst

	if tSimple(in) {
		// Register-pure ops outside a superblock's bulk path (re-entry
		// after a partial run, single-stepping at a stop) wrap their bare
		// body with the one-cycle advance.
		g := tBare(in)
		return func(m *Machine, c *core, f *frame) int {
			g(f)
			c.cycle++
			return next
		}
	}
	switch in.Op {
	case ir.OpLoad:
		off := in.Off
		if in.A.IsImm() {
			addr := (in.A.Imm + off) &^ 7
			return func(m *Machine, c *core, f *frame) int {
				f.regs[dst] = m.memLoad(c, addr)
				c.cycle++
				m.stats.Loads++
				return next
			}
		}
		a := in.A.Reg
		return func(m *Machine, c *core, f *frame) int {
			f.regs[dst] = m.memLoad(c, (f.regs[a]+off)&^7)
			c.cycle++
			m.stats.Loads++
			return next
		}
	case ir.OpStore:
		off := in.Off
		val := in.A
		if in.B.IsReg() && val.IsReg() {
			b, a := in.B.Reg, val.Reg
			return func(m *Machine, c *core, f *frame) int {
				regs := f.regs
				m.memStore(c, (regs[b]+off)&^7, regs[a])
				c.cycle++
				m.stats.Stores++
				return next
			}
		}
		base := in.B
		return func(m *Machine, c *core, f *frame) int {
			regs := f.regs
			m.memStore(c, (opVal(base, regs)+off)&^7, opVal(val, regs))
			c.cycle++
			m.stats.Stores++
			return next
		}
	case ir.OpJmp:
		thenFlat := tf.base[in.Then]
		return func(m *Machine, c *core, f *frame) int {
			c.cycle++
			m.stats.Branches++
			return thenFlat
		}
	case ir.OpBr:
		thenFlat, elseFlat := tf.base[in.Then], tf.base[in.Else]
		if in.A.IsImm() {
			target := elseFlat
			if in.A.Imm != 0 {
				target = thenFlat
			}
			return func(m *Machine, c *core, f *frame) int {
				c.cycle++
				m.stats.Branches++
				return target
			}
		}
		a := in.A.Reg
		return func(m *Machine, c *core, f *frame) int {
			c.cycle++
			m.stats.Branches++
			if f.regs[a] != 0 {
				return thenFlat
			}
			return elseFlat
		}
	case ir.OpRet:
		if !in.HasVal {
			return func(m *Machine, c *core, f *frame) int {
				c.cycle++
				m.handleRet(c, ir.Effect{Kind: ir.CtrlRet})
				return tcResync
			}
		}
		if in.A.IsImm() {
			v := in.A.Imm
			return func(m *Machine, c *core, f *frame) int {
				c.cycle++
				m.handleRet(c, ir.Effect{Kind: ir.CtrlRet, RetVal: v, HasRet: true})
				return tcResync
			}
		}
		a := in.A.Reg
		return func(m *Machine, c *core, f *frame) int {
			c.cycle++
			m.handleRet(c, ir.Effect{Kind: ir.CtrlRet, RetVal: f.regs[a], HasRet: true})
			return tcResync
		}

	case ir.OpBoundary:
		// handleBoundary reads f.blk/f.pc (the region's recovery point),
		// so materialize them first; the frame stack is unchanged after,
		// so fall through to the next flat slot directly.
		return func(m *Machine, c *core, f *frame) int {
			m.stats.Boundaries++
			f.blk, f.pc = bi, ii
			m.handleBoundary(c, f, in)
			return next
		}
	case ir.OpCkpt:
		a := in.A.Reg
		return func(m *Machine, c *core, f *frame) int {
			m.stats.Ckpts++
			if m.tel != nil && c.cur != nil {
				c.cur.ckpts++
			}
			m.memStore(c, CkptSlot(c.id, f.depth, a), f.regs[a])
			c.cycle++
			return next
		}
	case ir.OpAtomicCAS, ir.OpAtomicAdd, ir.OpAtomicXchg, ir.OpFence, ir.OpAlloc, ir.OpEmit:
		// handleSyncGroup consumes the trailing ckpt+boundary group by
		// advancing f.pc itself; it never changes block or frame, so the
		// resume point maps straight back into this code array.
		return func(m *Machine, c *core, f *frame) int {
			m.stats.Atomics++
			f.blk, f.pc = bi, ii
			m.handleSyncGroup(c, f, in)
			return tf.base[f.blk] + f.pc
		}
	case ir.OpCall:
		return func(m *Machine, c *core, f *frame) int {
			m.stats.Calls++
			f.blk, f.pc = bi, ii
			m.handleCall(c, f, in)
			return tcResync
		}

	default:
		// Rare or future op: take the reference path exactly.
		return func(m *Machine, c *core, f *frame) int {
			f.blk, f.pc = bi, ii
			eff := ir.Exec(in, f.regs, coreEnv{m, c})
			c.cycle++
			switch eff.Kind {
			case ir.CtrlNext:
				return next
			case ir.CtrlJump:
				f.blk, f.pc = eff.Target, 0
				return tf.base[eff.Target]
			case ir.CtrlRet:
				m.handleRet(c, eff)
			default:
				panic("sim: unexpected call effect in threaded kernel")
			}
			return tcResync
		}
	}
}

// aluEval mirrors ir.Exec's arithmetic exactly.
func aluEval(op ir.Op, a, b int64) int64 {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case ir.OpRem:
		if b == 0 {
			return 0
		}
		return a % b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		return a << (uint64(b) & 63)
	case ir.OpShr:
		return int64(uint64(a) >> (uint64(b) & 63))
	case ir.OpCmpEQ:
		return b2i(a == b)
	case ir.OpCmpNE:
		return b2i(a != b)
	case ir.OpCmpLT:
		return b2i(a < b)
	case ir.OpCmpLE:
		return b2i(a <= b)
	case ir.OpCmpGT:
		return b2i(a > b)
	case ir.OpCmpGE:
		return b2i(a >= b)
	}
	panic("sim: aluEval on non-ALU op")
}

// fuseCmpBr builds the compare+branch superinstruction for the pair at
// (bi, ii)/(bi, ii+1) when the branch consumes exactly the compare's
// destination. Between the two halves the closure re-checks the stop
// conditions the driver would have checked (stop cycle, scheduling
// bound, MaxSteps) and, if any trips, parks the frame at the branch and
// resyncs — so the pair is interruptible at exactly the same points as
// the unfused sequence and crash/bounded/sampled runs stay
// byte-identical.
func (tf *tFunc) fuseCmpBr(fn *ir.Function, bi, ii int) tOp {
	cmp := &fn.Blocks[bi].Instrs[ii]
	br := &fn.Blocks[bi].Instrs[ii+1]
	switch cmp.Op {
	case ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
	default:
		return nil
	}
	if br.Op != ir.OpBr || !br.A.IsReg() || br.A.Reg != cmp.Dst || !cmp.A.IsReg() {
		return nil
	}
	op, dst, ar, b := cmp.Op, cmp.Dst, cmp.A.Reg, cmp.B
	var cmpv func(f *frame) int64
	if b.IsImm() {
		bv := b.Imm
		switch op {
		case ir.OpCmpEQ:
			cmpv = func(f *frame) int64 { return b2i(f.regs[ar] == bv) }
		case ir.OpCmpNE:
			cmpv = func(f *frame) int64 { return b2i(f.regs[ar] != bv) }
		case ir.OpCmpLT:
			cmpv = func(f *frame) int64 { return b2i(f.regs[ar] < bv) }
		case ir.OpCmpLE:
			cmpv = func(f *frame) int64 { return b2i(f.regs[ar] <= bv) }
		case ir.OpCmpGT:
			cmpv = func(f *frame) int64 { return b2i(f.regs[ar] > bv) }
		case ir.OpCmpGE:
			cmpv = func(f *frame) int64 { return b2i(f.regs[ar] >= bv) }
		}
	} else {
		brg := b.Reg
		switch op {
		case ir.OpCmpEQ:
			cmpv = func(f *frame) int64 { return b2i(f.regs[ar] == f.regs[brg]) }
		case ir.OpCmpNE:
			cmpv = func(f *frame) int64 { return b2i(f.regs[ar] != f.regs[brg]) }
		case ir.OpCmpLT:
			cmpv = func(f *frame) int64 { return b2i(f.regs[ar] < f.regs[brg]) }
		case ir.OpCmpLE:
			cmpv = func(f *frame) int64 { return b2i(f.regs[ar] <= f.regs[brg]) }
		case ir.OpCmpGT:
			cmpv = func(f *frame) int64 { return b2i(f.regs[ar] > f.regs[brg]) }
		case ir.OpCmpGE:
			cmpv = func(f *frame) int64 { return b2i(f.regs[ar] >= f.regs[brg]) }
		}
	}
	thenFlat, elseFlat := tf.base[br.Then], tf.base[br.Else]
	return func(m *Machine, c *core, f *frame) int {
		v := cmpv(f)
		f.regs[dst] = v
		c.cycle++
		if c.cycle >= m.tcStop || m.stats.Instrs >= m.Cfg.MaxSteps ||
			!(c.cycle < m.tcBound || (c.cycle == m.tcBound && c.id < m.tcBoundID)) {
			f.blk, f.pc = bi, ii+1
			return tcResync
		}
		m.stats.Instrs++
		c.instrs++
		c.cycle++
		m.stats.Branches++
		if v != 0 {
			return thenFlat
		}
		return elseFlat
	}
}

// --- driver -----------------------------------------------------------------

// runThreaded advances the machine with the batched minimum-cycle
// scheduler over translated code.
func (m *Machine) runThreaded(crash int64) error {
	tp := m.threaded()
	if len(m.cores) == 1 {
		c := m.cores[0]
		if err := m.runCoreThreaded(tp, c, crash, tcNoBound, MaxCores+1, m.lbus != nil); err != nil {
			return err
		}
		m.halted = true
		return nil
	}
	for {
		// One scan: the reference kernel's argmin, plus the runner-up
		// threshold that bounds how long the winner may keep stepping.
		var c *core
		var nextCycle int64
		nextID := 0
		haveNext := false
		for _, cc := range m.cores {
			if cc.done || cc.cycle >= crash {
				continue
			}
			if c == nil || cc.cycle < c.cycle {
				if c != nil {
					nextCycle, nextID, haveNext = c.cycle, c.id, true
				}
				c = cc
			} else if !haveNext || cc.cycle < nextCycle {
				nextCycle, nextID, haveNext = cc.cycle, cc.id, true
			}
		}
		if c == nil {
			m.halted = true
			return nil
		}
		// Progress reporting piggybacks on the scheduling quantum: one
		// check per scan, never one per instruction.
		if m.lbus != nil && m.stats.Instrs >= m.liveNext {
			m.publishSimProgress(c.cycle)
		}
		if !haveNext {
			// Sole runnable core: run it out.
			if err := m.runCoreThreaded(tp, c, crash, tcNoBound, MaxCores+1, m.lbus != nil); err != nil {
				return err
			}
			continue
		}
		if err := m.runCoreThreaded(tp, c, crash, nextCycle, nextID, false); err != nil {
			return err
		}
	}
}

// tcNoBound is the scheduling bound of an unbounded (sole-runnable-core)
// batch: no reachable cycle equals it, so only crash/done stop the core.
const tcNoBound = int64(1)<<62 - 1

// stopAt is the first cycle at which the running core must return to the
// driver: the crash cycle, or the next telemetry sample when that comes
// first.
func (m *Machine) stopAt(crash int64) int64 {
	if m.tel != nil {
		if next := m.tel.Sampler.Next(); next < crash {
			return next
		}
	}
	return crash
}

// runCoreThreaded steps one core while it stays strictly below the
// (boundCycle, boundID) scheduling bound and the crash cycle — exactly
// the steps the reference scan would give it. Frame position is carried
// in the flat index fpc and written back to f.blk/f.pc whenever the core
// parks, so externally observable frame state matches the reference
// stepper at every stop point.
func (m *Machine) runCoreThreaded(tp *tProg, c *core, crash, boundCycle int64, boundID int, live bool) error {
	if c.done {
		return nil
	}
	stop := m.stopAt(crash)
	m.tcStop, m.tcBound, m.tcBoundID = stop, boundCycle, boundID
	f := c.frames[len(c.frames)-1]
	tf := tp.fns[f.fn]
	code := tf.code
	fpc := tf.base[f.blk] + f.pc
	for {
		inBound := c.cycle < boundCycle || (c.cycle == boundCycle && c.id < boundID)
		due := false
		if c.cycle >= stop || !inBound {
			if c.cycle >= crash || !inBound {
				break
			}
			due = true // stopped short of the crash: a sample is owed
		}
		if m.stats.Instrs >= m.Cfg.MaxSteps {
			f.blk, f.pc = tf.loc[fpc].Block, tf.loc[fpc].Index
			return fmt.Errorf("sim: exceeded %d instructions (livelock?)", m.Cfg.MaxSteps)
		}
		m.stats.Instrs++
		c.instrs++
		if due {
			m.tel.sample(c.cycle)
			stop = m.stopAt(crash)
			m.tcStop = stop
		}
		next := code[fpc](m, c, f)
		if next >= 0 {
			fpc = next
		} else {
			if c.done {
				return nil
			}
			f = c.frames[len(c.frames)-1]
			tf = tp.fns[f.fn]
			code = tf.code
			fpc = tf.base[f.blk] + f.pc
		}
		if live && m.stats.Instrs >= m.liveNext {
			m.publishSimProgress(c.cycle)
		}
	}
	f.blk, f.pc = tf.loc[fpc].Block, tf.loc[fpc].Index
	return nil
}
