package sim

import (
	"fmt"

	"cwsp/internal/ir"
)

// This file is the reference simulation kernel: the original
// one-instruction-per-scheduler-scan stepper, kept verbatim as the oracle
// the threaded production kernel (threaded.go) is differentially tested
// against. Select it with Config.Kernel = KernelReference (cwspsim
// -kernel=reference).

// runReference advances the machine one instruction at a time, each time
// scanning every core for the minimum-cycle runnable one (ties break to
// the lowest core id).
func (m *Machine) runReference(crash int64) error {
	for {
		var c *core
		for _, cc := range m.cores {
			if cc.done || cc.cycle >= crash {
				continue
			}
			if c == nil || cc.cycle < c.cycle {
				c = cc
			}
		}
		if c == nil {
			m.halted = true
			return nil
		}
		if err := m.step(c); err != nil {
			return err
		}
	}
}

func (m *Machine) step(c *core) error {
	if m.stats.Instrs >= m.Cfg.MaxSteps {
		return fmt.Errorf("sim: exceeded %d instructions (livelock?)", m.Cfg.MaxSteps)
	}
	f := c.frames[len(c.frames)-1]
	blk := f.fn.Blocks[f.blk]
	in := &blk.Instrs[f.pc]
	m.stats.Instrs++
	c.instrs++
	if m.tel != nil && m.tel.Sampler.Due(c.cycle) {
		m.tel.sample(c.cycle)
	}

	switch in.Op {
	case ir.OpBoundary:
		m.stats.Boundaries++
		m.handleBoundary(c, f, in)
		f.pc++
		return nil
	case ir.OpCkpt:
		m.stats.Ckpts++
		if m.tel != nil && c.cur != nil {
			c.cur.ckpts++
		}
		slot := CkptSlot(c.id, f.depth, in.A.Reg)
		m.memStore(c, slot, f.regs[in.A.Reg])
		c.cycle++
		f.pc++
		return nil
	case ir.OpAtomicCAS, ir.OpAtomicAdd, ir.OpAtomicXchg, ir.OpFence, ir.OpAlloc, ir.OpEmit:
		m.stats.Atomics++
		m.handleSyncGroup(c, f, in)
		return nil
	case ir.OpCall:
		m.stats.Calls++
		m.handleCall(c, f, in)
		return nil
	}

	eff := ir.Exec(in, f.regs, coreEnv{m, c})
	c.cycle++
	switch in.Op {
	case ir.OpLoad:
		m.stats.Loads++
	case ir.OpStore:
		m.stats.Stores++
	case ir.OpBr, ir.OpJmp:
		m.stats.Branches++
	}

	switch eff.Kind {
	case ir.CtrlNext:
		f.pc++
	case ir.CtrlJump:
		f.blk, f.pc = eff.Target, 0
	case ir.CtrlRet:
		m.handleRet(c, eff)
	case ir.CtrlCall:
		return fmt.Errorf("sim: unexpected call effect")
	}
	return nil
}
