// Package sim is the cycle-level machine model of the cWSP hardware: N
// cores (each with an L1D, a write buffer, a persist buffer + path, and a
// region boundary table) over a shared L2/L3, a direct-mapped DRAM cache,
// and NVM main memory behind multiple NUMA memory controllers with
// battery-backed write pending queues.
//
// Functional execution and timing are coupled: the machine interprets the
// IR directly and every committed store's persistence instant is computed
// from the deterministic FIFO schedules of the persist structures. A run
// can therefore be cut at an arbitrary crash cycle and reconstructed
// exactly (see CrashAt and package recovery).
package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"cwsp/internal/ir"
	"cwsp/internal/mem"
	"cwsp/internal/persist"
	"cwsp/internal/telemetry/live"
)

// RegionInfo describes one dynamic region for the recovery runtime. The
// descriptor fields mirror what cWSP hardware writes to NVM when the
// region becomes the RBT head (its recovery-slice pointer and frame
// context); the retire time is the instant its last store persisted.
type RegionInfo struct {
	Seq      int64
	Core     int
	Fn       string
	StaticID int
	Ref      ir.InstrRef
	Depth    int
	StackPtr int64
	Start    int64
	Retire   int64 // math.MaxInt64 until the region fully persists
}

type frame struct {
	fn    *ir.Function
	regs  []int64
	blk   int
	pc    int
	dst   ir.Reg
	depth int

	// Call linkage (for returns and for recovery reconstruction).
	spillBase int64
	spillList []ir.Reg
	resumeBlk int
	resumePC  int
}

type regionState struct {
	info       *RegionInfo
	persistMax int64

	// Telemetry-only bookkeeping (region length and checkpoint density).
	startInstrs int64
	ckpts       int64
}

type core struct {
	id    int
	cycle int64
	done  bool
	ret   int64

	l1d  *mem.Cache
	wb   *mem.WriteBuffer
	path *persist.Path
	rbt  *persist.RBT

	frames   []*frame
	stackPtr int64
	cur      *regionState
	// lines tracks the current region's persisted cache lines for
	// DedupLines schemes (nil otherwise); openRegion resets it.
	lines *lineSet

	instrs int64

	// Free lists keeping the steady-state step allocation-free: popped
	// frames and closed regions are recycled instead of re-allocated.
	// RegionInfo descriptors are recycled only when the machine is not
	// Recoverable (otherwise they escape into the Regions log).
	freeFrames  []*frame
	freeRegions []*regionState
	freeInfos   []*RegionInfo
}

// Machine is one configured simulation instance. Create with New, run with
// Run or RunUntil.
type Machine struct {
	Cfg  Config
	Sch  Scheme
	Prog *ir.Program

	// Mem is architectural memory (caches + NVM union); NVM is the
	// persisted image. Persistent schemes persist every store as it
	// commits, so the two always hold the same contents and NVM == Mem is
	// one image; base schemes keep a separate NVM image that only
	// InitWord writes.
	Mem *mem.PagedMem
	NVM *mem.PagedMem

	l2   *mem.Cache
	l3   *mem.Cache
	dram *mem.DRAMCache
	wpqs []*persist.WPQ

	cores []*core

	regionSeq int64
	// syncClock makes synchronizing operations' commit cycles monotone in
	// functional (step) order across cores: a CAS that observes a release
	// must carry a later timestamp, or a crash between the two would let
	// recovery re-execute both critical sections concurrently.
	syncClock int64
	Regions   []*RegionInfo // recovery descriptor log (Recoverable only)
	Journal   Journal       // persist-event journal (Recoverable only)
	// ckptSeen marks (value 1) the checkpoint-area words the journal has
	// touched; ckptAddrs lists them ascending — the slots the crash state
	// seals and a checkpoint-corruption fault can target.
	ckptSeen  *mem.PagedMem
	ckptAddrs []int64
	infoSlab  []RegionInfo // unused descriptors for the Regions log

	funcNames []string
	funcIdx   map[string]int
	// fnNum and callees are pointer-keyed mirrors of funcIdx and
	// Prog.Funcs, precomputed so the call path never hashes a string.
	fnNum   map[*ir.Function]int
	callees map[*ir.Instr]*ir.Function

	Output []int64

	tracer Tracer
	// tel is the optional telemetry attachment (EnableTelemetry). Every
	// instrumentation probe is behind a nil check so the disabled path
	// stays allocation-free.
	tel   *Telemetry
	stats Stats
	// lbus is the optional live event bus (SetLiveBus): the threaded
	// kernel reports instruction/cycle progress deltas every liveSimEvery
	// instructions so a campaign endpoint can watch long cells advance.
	// The probe sits outside the per-instruction hot path and is
	// nil-guarded, preserving the zero-alloc steady state (see
	// internal/simtest).
	lbus       *live.Bus
	liveNext   int64 // instruction count that triggers the next report
	liveInstrs int64 // last reported cumulative instructions
	liveCycles int64 // last reported core-local cycle
	// halted records that RunUntil drained every runnable core (all done
	// or frozen at the crash cycle).
	halted bool

	// tc is this machine's resolved threaded-code translation (threaded
	// kernel only; see threaded.go). tcStop/tcBound/tcBoundID mirror the
	// driver's active stop conditions — tcStop is the crash cycle or the
	// next telemetry sample, whichever is first — so superblocks and fused
	// superinstructions can check them without returning to the driver.
	tc        *tProg
	tcStop    int64
	tcBound   int64
	tcBoundID int
}

// Result is what a completed run returns.
type Result struct {
	Stats  Stats
	Ret    []int64 // per-core return values
	Output []int64
	// NVM is the persisted image and Mem the architectural one. Under
	// persistent schemes they are the same image (NVM == Mem): a caller
	// must not mutate one expecting the other to stay unchanged.
	NVM *mem.PagedMem
	Mem *mem.PagedMem
}

// ThreadSpec assigns a function to a core.
type ThreadSpec struct {
	Fn   string
	Args []int64
}

// New builds a machine running prog's entry function on core 0. Use
// NewThreaded for explicit multi-core thread placement.
func New(prog *ir.Program, cfg Config, sch Scheme) (*Machine, error) {
	return NewThreaded(prog, cfg, sch, []ThreadSpec{{Fn: prog.Entry}})
}

// NewThreaded builds a machine with one thread per spec (len(specs) must
// not exceed cfg.Cores; cfg.Cores is raised to match).
func NewThreaded(prog *ir.Program, cfg Config, sch Scheme, specs []ThreadSpec) (*Machine, error) {
	if err := ir.VerifyProgram(prog); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	switch cfg.Kernel {
	case "", KernelThreaded, KernelReference:
	default:
		return nil, fmt.Errorf("sim: unknown kernel %q (want %s|%s)",
			cfg.Kernel, KernelThreaded, KernelReference)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: no threads")
	}
	if cfg.Cores < len(specs) {
		cfg.Cores = len(specs)
	}
	if cfg.Cores > MaxCores {
		return nil, fmt.Errorf("sim: %d cores exceeds the %d-core address map", cfg.Cores, MaxCores)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 100_000_000
	}
	m := &Machine{
		Cfg:  cfg,
		Sch:  sch,
		Prog: prog,
		Mem:  mem.NewPagedMem(),
		l2:   mem.NewCache("l2", cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes),
	}
	m.NVM = m.Mem
	if !sch.Persist {
		m.NVM = mem.NewPagedMem()
	}
	if cfg.Recoverable {
		m.ckptSeen = mem.NewPagedMem()
	}
	if cfg.L3Bytes > 0 {
		m.l3 = mem.NewCache("l3", cfg.L3Bytes, cfg.L3Ways, cfg.LineBytes)
	}
	if sch.DRAMCache && cfg.DRAMBytes > 0 {
		m.dram = mem.NewDRAMCache(cfg.DRAMBytes, cfg.LineBytes)
	}
	ch := cfg.MCChannels
	if ch < 1 {
		ch = 1
	}
	for i := 0; i < cfg.NumMCs; i++ {
		m.wpqs = append(m.wpqs, persist.NewWPQ(cfg.WPQSize, cfg.NVMWriteBPC*float64(ch)))
	}

	m.funcIdx = map[string]int{}
	for n := range prog.Funcs {
		m.funcNames = append(m.funcNames, n)
	}
	sort.Strings(m.funcNames)
	for i, n := range m.funcNames {
		m.funcIdx[n] = i
	}
	m.fnNum = make(map[*ir.Function]int, len(m.funcNames))
	m.callees = map[*ir.Instr]*ir.Function{}
	for _, n := range m.funcNames {
		fn := prog.Funcs[n]
		m.fnNum[fn] = m.funcIdx[n]
		for _, b := range fn.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpCall {
					m.callees[&b.Instrs[i]] = prog.Funcs[b.Instrs[i].Callee]
				}
			}
		}
	}

	// The heap break lives in NVM.
	m.initWord(BrkAddr, HeapBase)

	for i, spec := range specs {
		fn := prog.Funcs[spec.Fn]
		if fn == nil {
			return nil, fmt.Errorf("sim: unknown thread function %q", spec.Fn)
		}
		if len(spec.Args) != fn.NParams {
			return nil, fmt.Errorf("sim: thread %s wants %d args, got %d", spec.Fn, fn.NParams, len(spec.Args))
		}
		c := &core{
			id:       i,
			l1d:      mem.NewCache("l1d", cfg.L1DBytes, cfg.L1DWays, cfg.LineBytes),
			wb:       mem.NewWriteBuffer(cfg.WBSize, cfg.WBDrainLat),
			path:     persist.NewPath(cfg.PBSize, cfg.PPBytesBPC, cfg.PPOneWayLat),
			rbt:      persist.NewRBT(cfg.RBTSize),
			stackPtr: StackStart(i),
		}
		if sch.DedupLines {
			c.lines = newLineSet()
		}
		f := &frame{fn: fn, regs: make([]int64, fn.NumRegs), dst: ir.NoReg}
		copy(f.regs, spec.Args)
		c.frames = []*frame{f}
		// Bootstrap: checkpoint the thread arguments so the entry region's
		// recovery slice can restore them (pre-existing NVM state).
		for ai, av := range spec.Args {
			m.initWord(CkptSlot(i, 0, ir.Reg(ai)), av)
		}
		// Bootstrap region: restart point is the thread entry.
		c.cur = m.openRegion(c, fn.Name, 0, ir.InstrRef{}, 0, c.stackPtr, 0)
		m.cores = append(m.cores, c)
	}
	return m, nil
}

// InitWord installs pre-existing state in both the architectural and
// persisted images (e.g. input datasets): present before cycle 0.
func (m *Machine) InitWord(addr, val int64) { m.initWord(addr, val) }

func (m *Machine) initWord(addr, val int64) {
	m.Mem.Store(addr, val)
	if m.NVM != m.Mem {
		m.NVM.Store(addr, val)
	}
}

func (m *Machine) openRegion(c *core, fn string, staticID int, ref ir.InstrRef, depth int, sp int64, start int64) *regionState {
	m.regionSeq++
	var ri *RegionInfo
	switch n := len(c.freeInfos); {
	case n > 0:
		ri = c.freeInfos[n-1]
		c.freeInfos = c.freeInfos[:n-1]
	case m.Cfg.Recoverable:
		// Logged descriptors live as long as the machine: carve them from
		// slabs instead of allocating each.
		if len(m.infoSlab) == 0 {
			m.infoSlab = make([]RegionInfo, 256)
		}
		ri = &m.infoSlab[0]
		m.infoSlab = m.infoSlab[1:]
	default:
		ri = &RegionInfo{}
	}
	*ri = RegionInfo{
		Seq: m.regionSeq, Core: c.id, Fn: fn, StaticID: staticID,
		Ref: ref, Depth: depth, StackPtr: sp, Start: start,
		Retire: math.MaxInt64,
	}
	if m.Cfg.Recoverable {
		m.Regions = append(m.Regions, ri)
	}
	var rs *regionState
	if n := len(c.freeRegions); n > 0 {
		rs = c.freeRegions[n-1]
		c.freeRegions = c.freeRegions[:n-1]
	} else {
		rs = &regionState{}
	}
	*rs = regionState{info: ri, startInstrs: c.instrs}
	if m.Sch.DedupLines {
		c.lines.reset()
	}
	return rs
}

// releaseRegion recycles a closed region's state (and, when the machine
// keeps no descriptor log, its RegionInfo) onto the core's free lists.
func (m *Machine) releaseRegion(c *core, rs *regionState) {
	if !m.Cfg.Recoverable {
		c.freeInfos = append(c.freeInfos, rs.info)
	}
	rs.info = nil
	c.freeRegions = append(c.freeRegions, rs)
}

// Run executes to completion (or error) with no crash.
func (m *Machine) Run() (*Result, error) {
	if err := m.RunUntil(math.MaxInt64); err != nil {
		return nil, err
	}
	return m.result(), nil
}

// RunUntil executes until every core is done or frozen at the crash cycle.
//
// Two behavior-identical kernels implement it, selected by Config.Kernel:
// the threaded-code production kernel (threaded.go, the default) and the
// verbatim reference stepper (reference.go), kept as the oracle
// internal/simtest's differential harness and fuzz targets hold the
// production kernel byte-identical to. Telemetry sampling and tracing run
// on either: samples land on the same cycles and trace streams match.
func (m *Machine) RunUntil(crash int64) error {
	if m.Cfg.Kernel == KernelReference {
		return m.runReference(crash)
	}
	return m.runThreaded(crash)
}

// liveSimEvery is how many instructions the threaded kernel executes between
// SimProgress reports. Coarse on purpose: the check is hoisted out of the
// per-instruction path wherever possible, and one event per ~4M
// instructions is ample resolution for a progress endpoint.
const liveSimEvery = 4 << 20

// SetLiveBus attaches a live event bus. The threaded kernel publishes
// SimProgress deltas (instructions and core-local cycles advanced since
// the previous report); a nil bus restores the exact disabled path. The
// attachment never changes simulation results — it only reads counters.
func (m *Machine) SetLiveBus(b *live.Bus) {
	m.lbus = b
	m.liveNext = m.stats.Instrs + liveSimEvery
	m.liveInstrs = m.stats.Instrs
}

// publishSimProgress emits one SimProgress delta and re-arms the trigger.
func (m *Machine) publishSimProgress(cycle int64) {
	d := m.stats.Instrs - m.liveInstrs
	dc := cycle - m.liveCycles
	if dc < 0 {
		dc = 0 // a different core's local clock may lag the last reporter
	}
	m.liveInstrs = m.stats.Instrs
	m.liveCycles = cycle
	m.liveNext = m.stats.Instrs + liveSimEvery
	m.lbus.Publish(live.Event{Kind: live.SimProgress, Instrs: d, Cycles: dc})
}

func (m *Machine) result() *Result {
	r := &Result{Stats: m.CollectStats(), Output: m.Output, NVM: m.NVM, Mem: m.Mem}
	for _, c := range m.cores {
		r.Ret = append(r.Ret, c.ret)
	}
	return r
}

// CollectStats finalizes and returns run statistics.
func (m *Machine) CollectStats() Stats {
	s := m.stats
	var maxCycle int64
	var occ float64
	for _, c := range m.cores {
		fin := c.cycle
		if m.Sch.Persist && m.Sch.UseRBT {
			if d := c.rbt.DrainTime(c.cycle); d > fin {
				fin = d
			}
		}
		if fin > maxCycle {
			maxCycle = fin
		}
		s.PBStallCyc += c.path.PBStall
		s.RBTStallCyc += c.rbt.FullStall
		s.WBStallCyc += c.wb.FullStall
		s.WBDelayed += c.wb.Delayed
		s.PersistBytes += c.path.BytesSent
		s.L1DMisses += c.l1d.Misses
		s.L1DAccs += c.l1d.Hits + c.l1d.Misses
		occ += c.wb.AvgOccupancy()
	}
	s.Cycles = maxCycle
	s.WBAvgOcc = occ / float64(len(m.cores))
	s.L2Misses = m.l2.Misses
	s.L2Accs = m.l2.Hits + m.l2.Misses
	if m.dram != nil {
		s.DRAMMisses = m.dram.Misses
		s.DRAMAccs = m.dram.Hits + m.dram.Misses
	}
	return s
}

// --- memory access paths --------------------------------------------------

func (m *Machine) eff(lat int64) int64 {
	if lat <= 1 {
		return lat
	}
	e := int64(float64(lat) / m.Cfg.MLP)
	if e < 1 {
		e = 1
	}
	return e
}

func (m *Machine) mcOf(addr int64) int {
	return int(uint64(addr>>12) % uint64(len(m.wpqs)))
}

// missLatency descends the hierarchy below a missing L1D access and
// returns the added latency. write indicates a store-fill.
func (m *Machine) missLatency(c *core, addr int64, write bool) int64 {
	lat := int64(0)
	if hit, _ := m.l2.Access(addr, false); hit {
		return m.eff(m.Cfg.L2Lat)
	}
	lat += m.Cfg.L2Lat
	if m.l3 != nil {
		if hit, _ := m.l3.Access(addr, false); hit {
			return m.eff(lat + m.Cfg.L3Lat)
		}
		lat += m.Cfg.L3Lat
	}
	if m.dram != nil {
		if hit, _, _ := m.dram.Access(addr, write); hit {
			return m.eff(lat + m.Cfg.DRAMLat)
		}
		// DRAM-cache miss costs only the tag probe (memory-mode tags are
		// checked in the controller); the fill overlaps the NVM access.
		// Dirty victim writebacks are dropped in WSP mode (the persist
		// path already carried the data).
		lat += m.Cfg.DRAMLat / 4
	}
	m.stats.NVMReads++
	lat += m.Cfg.NVMReadLat
	// Loads reaching NVM may hit a pending WPQ entry (Section V-A2).
	if m.Sch.Persist {
		w := m.wpqs[m.mcOf(addr)]
		if p := w.PendingUntil(addr, c.cycle); p > c.cycle {
			m.stats.WPQHits++
			if m.Sch.WPQDelay {
				m.stats.WPQLoadDelay += p - c.cycle
				if m.tel != nil {
					m.tel.StallWPQLoad.Observe(p - c.cycle)
				}
				c.cycle = p
			}
		}
		w.Sweep(c.cycle)
	}
	return m.eff(lat)
}

func (m *Machine) handleEviction(c *core, ev mem.Evicted) {
	if !ev.Valid || !ev.Dirty {
		return
	}
	lineAddr := ev.Line * int64(m.Cfg.LineBytes)
	var persistReady int64
	if m.Sch.Persist && m.Sch.WBDelay {
		persistReady = c.path.LinePersistTime(lineAddr, c.cycle)
	}
	before := c.cycle
	c.cycle = c.wb.Insert(c.cycle, persistReady)
	if m.tel != nil && c.cycle > before {
		m.tel.StallWB.Observe(c.cycle - before)
	}
}

// memLoad performs an architectural load with timing.
func (m *Machine) memLoad(c *core, addr int64) int64 {
	val := m.Mem.Load(addr)
	hit, ev := c.l1d.Access(addr, false)
	m.handleEviction(c, ev)
	if !hit {
		c.cycle += m.missLatency(c, addr, false)
	}
	return val
}

// memStore performs an architectural store with timing and (scheme
// permitting) asynchronous persistence.
func (m *Machine) memStore(c *core, addr, val int64) {
	var old int64
	if m.Sch.Persist && m.Cfg.Recoverable {
		old = m.Mem.Load(addr) // the journal's pre-store NVM word (NVM == Mem)
	}
	m.Mem.Store(addr, val)
	hit, ev := c.l1d.Access(addr, true)
	m.handleEviction(c, ev)
	if !hit {
		// Store-miss fills are half-hidden by the store buffer.
		c.cycle += m.missLatency(c, addr, true) / 2
	}
	if !m.Sch.Persist {
		return
	}

	bytes := m.Sch.GranularityBytes
	if bytes == 0 {
		bytes = 8
	}
	if m.Sch.DedupLines && c.cur != nil {
		line := addr &^ int64(m.Cfg.LineBytes-1)
		if c.lines.insert(line) {
			return // coalesced into an already-buffered redo line
		}
	}

	logged := false
	if m.Sch.MCSpec {
		logged = IsCkptArea(addr) || c.rbt.Occupancy(c.cycle) > 0
	}
	logBytes := 0
	if logged {
		switch {
		case m.Sch.LogBytes < 0:
			logBytes = 0 // idealized free logging (ablation)
		case m.Sch.LogBytes == 0:
			logBytes = 16 // default: address + old value
		default:
			logBytes = m.Sch.LogBytes
		}
		m.stats.LogBytes += int64(logBytes)
	}

	mc := m.mcOf(addr)
	commit := c.cycle
	proceed, admit := c.path.Send(commit, addr, bytes, m.wpqs[mc], int64(mc)*m.Cfg.NUMAStep, logBytes)
	c.cycle = proceed
	if m.tel != nil {
		m.tel.PersistLat.Observe(admit - commit)
		if proceed > commit {
			m.tel.StallPB.Observe(proceed - commit)
		}
		if logged {
			m.tel.mcLogBytes[mc] += int64(logBytes)
		}
	}
	if m.tracer != nil {
		seq := int64(0)
		if c.cur != nil {
			seq = c.cur.info.Seq
		}
		m.tracer.Event(TraceEvent{Kind: TracePersist, Core: c.id, Cycle: c.cycle,
			Region: seq, Addr: addr, Admit: admit, MC: mc, Logged: logged})
	}
	if c.cur != nil && admit > c.cur.persistMax {
		c.cur.persistMax = admit
	}
	if m.Cfg.Recoverable {
		m.journalStore(c, addr, old, val, admit, logged, mc, m.wpqs[mc].Admits)
	}
}

// journalStore appends one persist event to the journal, tagged with the
// core and its current region and sealed; a checkpoint-area address joins
// the sealed slot set.
func (m *Machine) journalStore(c *core, addr, old, val, admit int64, logged bool, mc int, mcSeq int64) {
	r := m.Journal.add() // filled in place: a record is 80 bytes
	r.Addr, r.Old, r.New, r.Admit = addr, old, val, admit
	r.Logged, r.Core, r.MC, r.MCSeq = logged, c.id, mc, mcSeq
	if c.cur != nil {
		r.Region = c.cur.info.Seq
	}
	r.Seal = sealRec(r)
	if IsCkptArea(addr) && m.ckptSeen.Load(addr) == 0 {
		m.ckptSeen.Store(addr, 1)
		i, _ := slices.BinarySearch(m.ckptAddrs, addr)
		m.ckptAddrs = slices.Insert(m.ckptAddrs, i, addr)
	}
}

// syncStore persists a store synchronously at the group-commit instant
// (used by synchronizing ops, whose groups commit atomically with respect
// to crashes: every store in one group carries the same persistence
// timestamp, so a crash either sees the whole group or none of it).
func (m *Machine) syncStore(c *core, addr, val int64, logged bool, commit int64) {
	var old int64
	if m.Sch.Persist && m.Cfg.Recoverable {
		old = m.Mem.Load(addr) // the journal's pre-store NVM word (NVM == Mem)
	}
	m.Mem.Store(addr, val)
	c.l1d.Access(addr, true) // keep cache state warm; evictions immaterial here
	if m.Sch.Persist && m.Cfg.Recoverable {
		// Synchronous persists bypass the WPQ (MCSeq 0): the drain-ledger
		// cross-check does not cover them, but their records are sealed.
		m.journalStore(c, addr, old, val, commit, logged, 0, 0)
	}
}

// --- instruction stepping ---------------------------------------------------

type coreEnv struct {
	m *Machine
	c *core
}

func (e coreEnv) Load(addr int64) int64  { return e.m.memLoad(e.c, addr) }
func (e coreEnv) Store(addr, val int64)  { e.m.memStore(e.c, addr, val) }
func (e coreEnv) Alloc(size int64) int64 { panic("sim: alloc must take the sync path") }
func (e coreEnv) Emit(v int64)           { panic("sim: emit must take the sync path") }

// handleBoundary commits a region boundary: the running region closes and
// a new one opens with this boundary as its recovery point.
func (m *Machine) handleBoundary(c *core, f *frame, in *ir.Instr) {
	m.closeRegion(c)
	c.cycle += 1 + m.Sch.BoundaryExtraLat
	ref := ir.InstrRef{Block: f.blk, Index: f.pc}
	c.cur = m.openRegion(c, f.fn.Name, in.RegionID, ref, f.depth, c.stackPtr, c.cycle)
	m.stats.Regions++
	if m.tracer != nil {
		m.tracer.Event(TraceEvent{Kind: TraceRegion, Core: c.id, Cycle: c.cycle,
			Region: c.cur.info.Seq, Fn: f.fn.Name, Block: ref.Block, Index: ref.Index})
	}
}

// closeRegion finishes the running region, pushing it into the RBT (cWSP)
// or stalling for its persistence (prior schemes).
func (m *Machine) closeRegion(c *core) {
	cur := c.cur
	if cur == nil {
		return
	}
	closeCycle := c.cycle
	if !m.Sch.Persist {
		cur.info.Retire = c.cycle
		m.finishRegion(c, cur, closeCycle)
		m.releaseRegion(c, cur)
		c.cur = nil
		return
	}
	switch {
	case m.Sch.UseRBT:
		proceed, retire := c.rbt.Push(c.cycle, cur.persistMax)
		if m.tel != nil && proceed > c.cycle {
			m.tel.StallRBT.Observe(proceed - c.cycle)
		}
		c.cycle = proceed
		cur.info.Retire = retire
	case m.Sch.BoundaryStall:
		if cur.persistMax > c.cycle {
			m.stats.BoundaryStall += cur.persistMax - c.cycle
			if m.tel != nil {
				m.tel.StallBoundary.Observe(cur.persistMax - c.cycle)
			}
			c.cycle = cur.persistMax
		}
		cur.info.Retire = c.cycle
	default:
		// Battery-backed buffering (Capri): the region is durable once
		// buffered; no core-visible stall.
		r := cur.persistMax
		if r < c.cycle {
			r = c.cycle
		}
		cur.info.Retire = r
	}
	m.finishRegion(c, cur, closeCycle)
	m.releaseRegion(c, cur)
	c.cur = nil
}

// finishRegion records a closing region's telemetry (length, checkpoint
// density) and emits its end-of-span trace event. closeCycle is the cycle
// the region stopped executing (before any retirement stall); the trace
// event carries the retire (durability) instant in Admit and the region's
// start cycle in Addr so exporters can rebuild the full span.
func (m *Machine) finishRegion(c *core, cur *regionState, closeCycle int64) {
	if m.tel != nil {
		m.tel.RegionInstrs.Observe(c.instrs - cur.startInstrs)
		m.tel.RegionCycles.Observe(closeCycle - cur.info.Start)
		m.tel.RegionCkpts.Observe(cur.ckpts)
	}
	if m.tracer != nil {
		m.tracer.Event(TraceEvent{Kind: TraceRegionEnd, Core: c.id, Cycle: closeCycle,
			Region: cur.info.Seq, Addr: cur.info.Start, Admit: cur.info.Retire,
			Fn: cur.info.Fn})
	}
}

// handleSyncGroup executes a synchronizing op (atomic, fence, alloc, emit)
// and — in compiled programs — the checkpoint+boundary group that follows
// it, committing the whole group at one instant so the recovery point
// always advances past irrevocable effects atomically.
func (m *Machine) handleSyncGroup(c *core, f *frame, in *ir.Instr) {
	// Cross-core ordering: this synchronizing op executes functionally
	// after every earlier sync op (step order); its cycle timestamp must
	// not precede theirs.
	if len(m.cores) > 1 && c.cycle <= m.syncClock {
		c.cycle = m.syncClock + 1
	}
	// Persist-ordering: all prior regions and the current region's stores
	// must be durable before a synchronization point commits.
	if m.Sch.Persist {
		target := c.rbt.DrainTime(c.cycle)
		if m.Sch.UseRBT || m.Sch.BoundaryStall {
			if c.cur != nil && c.cur.persistMax > target {
				target = c.cur.persistMax
			}
		}
		if target > c.cycle {
			m.stats.DrainStallCyc += target - c.cycle
			if m.tel != nil {
				m.tel.StallDrain.Observe(target - c.cycle)
			}
			c.cycle = target
		}
	}
	// Every persist in this group is stamped with the group-commit
	// instant, and the closing region retires exactly then — so a crash
	// either includes the entire group (retired, never re-executed) or
	// none of it (all its NVM effects undone, region re-executed).
	commit := c.cycle
	if commit > m.syncClock {
		m.syncClock = commit
	}
	if m.tracer != nil {
		seq := int64(0)
		if c.cur != nil {
			seq = c.cur.info.Seq
		}
		m.tracer.Event(TraceEvent{Kind: TraceSync, Core: c.id, Cycle: commit,
			Region: seq, Op: in.Op})
	}
	c.cycle += m.Cfg.AtomicLat

	// Execute the op functionally with synchronous persistence.
	regs := f.regs
	switch in.Op {
	case ir.OpAtomicCAS, ir.OpAtomicAdd, ir.OpAtomicXchg:
		addr := ir.EffAddr(in, regs)
		// Timing: treat like a load for the cache walk.
		hit, ev := c.l1d.Access(addr, true)
		m.handleEviction(c, ev)
		if !hit {
			c.cycle += m.missLatency(c, addr, true)
		}
		old := m.Mem.Load(addr)
		switch in.Op {
		case ir.OpAtomicCAS:
			if old == opVal(in.B, regs) {
				m.syncStore(c, addr, opVal(in.C, regs), false, commit)
			}
		case ir.OpAtomicAdd:
			m.syncStore(c, addr, old+opVal(in.B, regs), false, commit)
		case ir.OpAtomicXchg:
			m.syncStore(c, addr, opVal(in.B, regs), false, commit)
		}
		regs[in.Dst] = old
		if m.Sch.Persist {
			c.cycle += 2 * m.Cfg.PPOneWayLat
		}
	case ir.OpFence:
		// Ordering only.
	case ir.OpAlloc:
		size := opVal(in.A, regs)
		if size <= 0 {
			size = 8
		}
		size = (size + 63) &^ 63
		brk := m.Mem.Load(BrkAddr)
		m.syncStore(c, BrkAddr, brk+size, false, commit)
		regs[in.Dst] = brk
		if m.Sch.Persist {
			c.cycle += 2 * m.Cfg.PPOneWayLat
		}
	case ir.OpEmit:
		v := opVal(in.A, regs)
		n := m.Mem.Load(EmitBase)
		m.syncStore(c, EmitBase+8*(n+1), v, false, commit)
		m.syncStore(c, EmitBase, n+1, false, commit)
		m.Output = append(m.Output, v)
		if m.Sch.Persist {
			c.cycle += 2 * m.Cfg.PPOneWayLat
		}
	}
	f.pc++

	// Commit any trailing checkpoint+boundary group at the same instant.
	blk := f.fn.Blocks[f.blk]
	for f.pc < len(blk.Instrs) {
		nxt := &blk.Instrs[f.pc]
		if nxt.Op == ir.OpCkpt {
			m.stats.Ckpts++
			m.stats.Instrs++
			c.instrs++
			if m.tel != nil && c.cur != nil {
				c.cur.ckpts++
			}
			m.syncStore(c, CkptSlot(c.id, f.depth, nxt.A.Reg), f.regs[nxt.A.Reg], true, commit)
			c.cycle++
			f.pc++
			continue
		}
		if nxt.Op == ir.OpBoundary {
			m.stats.Boundaries++
			m.stats.Instrs++
			c.instrs++
			m.stats.Regions++
			// Close the group's region: it retires at the group commit
			// (everything in it persisted synchronously).
			if cur := c.cur; cur != nil {
				cur.info.Retire = commit
				m.finishRegion(c, cur, commit)
				m.releaseRegion(c, cur)
				c.cur = nil
			}
			c.cycle++
			ref := ir.InstrRef{Block: f.blk, Index: f.pc}
			c.cur = m.openRegion(c, f.fn.Name, nxt.RegionID, ref, f.depth, c.stackPtr, c.cycle)
			f.pc++
		}
		break
	}
}

func opVal(o ir.Operand, regs []int64) int64 {
	if o.Kind == ir.OperandImm {
		return o.Imm
	}
	return regs[o.Reg]
}

// handleCall applies the calling convention: spill live-across registers
// and a frame record to the NVM stack, checkpoint the arguments into the
// callee frame's slots, then transfer control.
func (m *Machine) handleCall(c *core, f *frame, in *ir.Instr) {
	ref := ir.InstrRef{Block: f.blk, Index: f.pc}
	spills := f.fn.LiveAcross[ref]
	base := c.stackPtr

	for i, r := range spills {
		m.memStore(c, base+int64(i)*8, f.regs[r])
		m.stats.SpillStores++
		c.cycle++
	}
	rec := base + int64(len(spills))*8
	m.memStore(c, rec, int64(m.fnNum[f.fn]))
	m.memStore(c, rec+8, int64(f.blk)<<32|int64(f.pc))
	m.memStore(c, rec+16, base)
	m.memStore(c, rec+24, int64(len(in.Args)))
	c.cycle += 2

	callee := m.callees[in]
	if callee == nil {
		callee = m.Prog.Funcs[in.Callee]
	}
	var nf *frame
	if n := len(c.freeFrames); n > 0 {
		nf = c.freeFrames[n-1]
		c.freeFrames = c.freeFrames[:n-1]
	} else {
		nf = &frame{}
	}
	regs := nf.regs
	if cap(regs) < callee.NumRegs {
		regs = make([]int64, callee.NumRegs)
	} else {
		regs = regs[:callee.NumRegs]
		clear(regs)
	}
	*nf = frame{
		fn:        callee,
		regs:      regs,
		dst:       in.Dst,
		depth:     f.depth + 1,
		spillBase: base,
		spillList: spills,
		resumeBlk: f.blk,
		resumePC:  f.pc + 1,
	}
	if nf.depth >= MaxDepth {
		panic(fmt.Sprintf("sim: call depth exceeds %d", MaxDepth))
	}
	for i, a := range in.Args {
		v := opVal(a, f.regs)
		nf.regs[i] = v
		// Argument checkpoints (ckpt area => always undo-logged).
		m.memStore(c, CkptSlot(c.id, nf.depth, ir.Reg(i)), v)
		c.cycle++
	}
	c.stackPtr = rec + frameRecordWords*8
	c.frames = append(c.frames, nf)
	c.cycle += m.Cfg.CallLat
	if m.tracer != nil {
		m.tracer.Event(TraceEvent{Kind: TraceCall, Core: c.id, Cycle: c.cycle,
			Fn: f.fn.Name, Callee: in.Callee, Depth: nf.depth})
	}
}

// handleRet pops the frame, restoring the caller's spilled registers from
// the NVM stack.
func (m *Machine) handleRet(c *core, eff ir.Effect) {
	fin := c.frames[len(c.frames)-1]
	c.frames = c.frames[:len(c.frames)-1]
	if len(c.frames) == 0 {
		c.done = true
		if eff.HasRet {
			c.ret = eff.RetVal
		}
		m.closeRegion(c)
		return
	}
	parent := c.frames[len(c.frames)-1]
	for i, r := range fin.spillList {
		parent.regs[r] = m.memLoad(c, fin.spillBase+int64(i)*8)
		m.stats.RestoreLoads++
		c.cycle++
	}
	if eff.HasRet && fin.dst != ir.NoReg {
		parent.regs[fin.dst] = eff.RetVal
	}
	parent.blk, parent.pc = fin.resumeBlk, fin.resumePC
	c.stackPtr = fin.spillBase
	c.cycle += m.Cfg.CallLat
	if m.tracer != nil {
		m.tracer.Event(TraceEvent{Kind: TraceRet, Core: c.id, Cycle: c.cycle,
			Fn: parent.fn.Name, Callee: fin.fn.Name})
	}
	// Recycle the popped frame (spillList belongs to the function's
	// LiveAcross table, so only the frame record itself is reused).
	fin.spillList = nil
	c.freeFrames = append(c.freeFrames, fin)
}

// Halted reports whether the machine has drained every runnable core
// (completed, or frozen at a crash cycle).
func (m *Machine) Halted() bool { return m.halted }
