// Package persist models cWSP's persistence hardware (paper Sections III,
// V): the per-core persist buffer (PB, a repurposed write-combining
// buffer) feeding a FIFO persist path, the battery-backed write pending
// queue (WPQ) of each memory controller, the region boundary table (RBT)
// that enables memory-controller speculation, and the persist-event journal
// the recovery runtime replays.
//
// All components are deterministic timestamp schedulers: because every
// queue is FIFO with known service rates, an entry's arrival, admission,
// and drain times can be computed at enqueue time, which lets the machine
// advance lazily instead of cycle by cycle.
package persist

// WPQ is one memory controller's write pending queue. Entries are 8-byte
// words (cWSP) or 64-byte lines (prior work); arrival order equals drain
// order. The WPQ is inside the persistence domain: a store is *persisted*
// the moment it is admitted.
type WPQ struct {
	cap           int
	bytesPerCycle float64

	// drainDone is a ring of the last cap entries' drain-completion times,
	// monotone non-decreasing.
	drainDone []int64
	head      int // ring start
	count     int
	lastDrain int64

	// pending maps word address -> drain time, for the load-delay check
	// (paper Section V-A2).
	pending *addrTable

	Admits       int64
	FullWait     int64 // total cycles arrivals waited for a free slot
	BytesDrained int64
}

// NewWPQ builds a WPQ with the given capacity and NVM write drain rate.
func NewWPQ(capacity int, bytesPerCycle float64) *WPQ {
	if capacity < 1 {
		capacity = 1
	}
	if bytesPerCycle <= 0 {
		bytesPerCycle = 1
	}
	return &WPQ{
		cap:           capacity,
		bytesPerCycle: bytesPerCycle,
		drainDone:     make([]int64, capacity),
		pending:       newAddrTable(),
	}
}

// Admit schedules an entry arriving at the MC at cycle arrival that will
// write bytes to NVM media (data plus any undo-log bytes). It returns the
// admission time (the persistence instant) and the media drain-completion
// time.
func (w *WPQ) Admit(arrival int64, addr int64, bytes int) (admit, drain int64) {
	admit = arrival
	if w.count >= w.cap {
		// Wait for the oldest in-flight entry to leave the queue.
		oldest := w.drainDone[w.head]
		if oldest > admit {
			w.FullWait += oldest - admit
			admit = oldest
		}
		w.head++
		if w.head == w.cap {
			w.head = 0
		}
		w.count--
	}
	start := admit
	if w.lastDrain > start {
		start = w.lastDrain
	}
	drain = start + int64(float64(bytes)/w.bytesPerCycle)
	if drain == start {
		drain = start + 1
	}
	w.lastDrain = drain
	tail := w.head + w.count
	if tail >= w.cap {
		tail -= w.cap
	}
	w.drainDone[tail] = drain
	w.count++
	w.Admits++
	w.BytesDrained += int64(bytes)

	if addr != 0 {
		w.pending.put(addr&^7, drain)
	}
	return admit, drain
}

// Occupancy returns the number of entries still in flight (admitted but
// not yet drained to media) at cycle now. Read-only: safe for telemetry
// sampling at any point in the schedule.
func (w *WPQ) Occupancy(now int64) int {
	n := 0
	for i := 0; i < w.count; i++ {
		if w.drainDone[(w.head+i)%w.cap] > now {
			n++
		}
	}
	return n
}

// Backlog returns how many cycles of queued media work remain at cycle now
// (0 when the media is idle): the distance between the last scheduled
// drain completion and the present. This is the gauge that exposes
// persist-path saturation long before FullWait starts accumulating.
func (w *WPQ) Backlog(now int64) int64 {
	if w.lastDrain > now {
		return w.lastDrain - now
	}
	return 0
}

// PendingUntil returns the drain time of a pending entry covering addr, or
// 0 when nothing is pending at cycle now. Stale map entries are collected
// on query.
func (w *WPQ) PendingUntil(addr, now int64) int64 {
	key := addr &^ 7
	d, ok := w.pending.get(key)
	if !ok {
		return 0
	}
	if d <= now {
		w.pending.del(key)
		return 0
	}
	return d
}

// Sweep drops drained pending-address entries (bounds table growth): every
// entry with drain <= now, the map's range-and-delete set.
func (w *WPQ) Sweep(now int64) {
	if w.pending.live >= 4*w.cap {
		w.pending.sweepBelow(now)
	}
}

// Path is one core's persist buffer plus its FIFO path to the memory
// controllers.
type Path struct {
	pbCap         int
	bytesPerCycle float64
	oneWayLat     int64

	// sent distinguishes "no sends yet" from "last send was at cycle 0"
	// so the bandwidth interval applies to every send after the first.
	sent     bool
	lastSend int64
	// ackFree is a FIFO ring of entry deallocation times (monotone: the
	// PB frees entries head-first, so each entry's free time is the
	// running max of acknowledgment times). Send's full-PB wait bounds the
	// entry count by pbCap, so the ring never grows.
	ackFree []int64
	ackHead int
	ackLen  int
	// linePersist maps line address -> latest persist (admit) time of any
	// entry in that line still potentially in flight, for the WB check.
	linePersist *addrTable

	Sends     int64
	PBStall   int64 // cycles the core stalled on a full PB
	BytesSent int64
}

// NewPath builds a persist path with the given PB capacity, bandwidth
// (bytes per core cycle) and one-way latency in cycles.
func NewPath(pbCap int, bytesPerCycle float64, oneWayLat int64) *Path {
	if pbCap < 1 {
		pbCap = 1
	}
	if bytesPerCycle <= 0 {
		bytesPerCycle = 0.001
	}
	return &Path{
		pbCap:         pbCap,
		bytesPerCycle: bytesPerCycle,
		oneWayLat:     oneWayLat,
		ackFree:       make([]int64, pbCap),
		linePersist:   newAddrTable(),
	}
}

func (p *Path) gc(now int64) {
	for p.ackLen > 0 && p.ackFree[p.ackHead] <= now {
		p.ackHead++
		if p.ackHead == p.pbCap {
			p.ackHead = 0
		}
		p.ackLen--
	}
}

// Send schedules one persist of `bytes` at word address addr, committed at
// cycle commit, destined for WPQ w with extra per-MC latency numaExtra.
// logBytes adds undo-log media traffic at the MC. It returns the cycle the
// core may proceed (≥ commit when the PB was full) and the admission
// (persistence) time of the entry.
func (p *Path) Send(commit int64, addr int64, bytes int, w *WPQ, numaExtra int64, logBytes int) (proceed, admit int64) {
	proceed = commit
	p.gc(proceed)
	if p.ackLen >= p.pbCap {
		// Wait until the head entry deallocates (ackLen == pbCap exactly,
		// since the full-PB wait below keeps the ring from overfilling).
		free := p.ackFree[p.ackHead]
		if free > proceed {
			p.PBStall += free - proceed
			proceed = free
		}
		p.gc(proceed)
	}

	send := proceed
	if p.sent {
		interval := int64(float64(bytes) / p.bytesPerCycle)
		if interval < 1 {
			interval = 1
		}
		if p.lastSend+interval > send {
			send = p.lastSend + interval
		}
	}
	p.sent = true
	p.lastSend = send

	arrival := send + p.oneWayLat + numaExtra
	admit, _ = w.Admit(arrival, addr, bytes+logBytes)

	ack := admit + p.oneWayLat
	// FIFO dealloc: the PB frees entries in order, so monotonize.
	if p.ackLen > 0 {
		last := p.ackHead + p.ackLen - 1
		if last >= p.pbCap {
			last -= p.pbCap
		}
		if p.ackFree[last] > ack {
			ack = p.ackFree[last]
		}
	}
	tail := p.ackHead + p.ackLen
	if tail >= p.pbCap {
		tail -= p.pbCap
	}
	p.ackFree[tail] = ack
	p.ackLen++

	line := addr &^ 63
	if prev, ok := p.linePersist.get(line); !ok || admit > prev {
		p.linePersist.put(line, admit)
	}
	if p.linePersist.live > 8*p.pbCap {
		p.linePersist.sweepBelow(commit)
	}

	p.Sends++
	p.BytesSent += int64(bytes)
	return proceed, admit
}

// LinePersistTime returns the latest persistence time of in-flight entries
// covering the 64-byte line of addr (0 when none) — the PB check the WB
// performs before releasing a dirty line to L2.
func (p *Path) LinePersistTime(addr, now int64) int64 {
	t, ok := p.linePersist.get(addr &^ 63)
	if !ok {
		return 0
	}
	if t <= now {
		p.linePersist.del(addr &^ 63)
		return 0
	}
	return t
}

// Occupancy returns the current PB entry count at cycle now.
func (p *Path) Occupancy(now int64) int {
	p.gc(now)
	return p.ackLen
}

// SendBacklog returns how many cycles of persist-path send bandwidth are
// already committed beyond cycle now (0 when the path is caught up) — the
// depth of the serialization queue feeding the MCs.
func (p *Path) SendBacklog(now int64) int64 {
	if p.lastSend > now {
		return p.lastSend - now
	}
	return 0
}

// RBT is one core's region boundary table: a FIFO of unretired regions'
// retire times. Its capacity bounds how many regions may persist
// concurrently (the speculation depth).
type RBT struct {
	cap int
	// retire is a FIFO ring of retire times, monotone non-decreasing.
	// Push's full-table wait bounds the entry count by cap, so the ring
	// never grows.
	retire []int64
	head   int
	len    int

	FullStall int64
	Retired   int64
}

// NewRBT builds an RBT with the given entry count.
func NewRBT(capacity int) *RBT {
	if capacity < 1 {
		capacity = 1
	}
	return &RBT{cap: capacity, retire: make([]int64, capacity)}
}

func (r *RBT) gc(now int64) {
	for r.len > 0 && r.retire[r.head] <= now {
		r.head++
		if r.head == r.cap {
			r.head = 0
		}
		r.len--
		r.Retired++
	}
}

func (r *RBT) last() int64 {
	i := r.head + r.len - 1
	if i >= r.cap {
		i -= r.cap
	}
	return r.retire[i]
}

// Push records a region whose stores all persist by persistDone, committed
// at cycle now. In-order retirement: the region retires no earlier than its
// predecessor. Returns the cycle the core may proceed (≥ now if the RBT was
// full) and the region's retire time.
func (r *RBT) Push(now, persistDone int64) (proceed, retireTime int64) {
	proceed = now
	r.gc(proceed)
	if r.len >= r.cap {
		free := r.retire[r.head]
		if free > proceed {
			r.FullStall += free - proceed
			proceed = free
		}
		r.gc(proceed)
	}
	retireTime = persistDone
	if retireTime < proceed {
		retireTime = proceed
	}
	if r.len > 0 {
		if last := r.last(); last > retireTime {
			retireTime = last
		}
	}
	tail := r.head + r.len
	if tail >= r.cap {
		tail -= r.cap
	}
	r.retire[tail] = retireTime
	r.len++
	return proceed, retireTime
}

// DrainTime returns the cycle by which every tracked region has retired.
func (r *RBT) DrainTime(now int64) int64 {
	r.gc(now)
	if r.len == 0 {
		return now
	}
	return r.last()
}

// Occupancy returns the number of unretired regions at cycle now.
func (r *RBT) Occupancy(now int64) int {
	r.gc(now)
	return r.len
}

// Rec is one journaled persist event: the recovery runtime uses the journal
// to reconstruct the NVM image at an arbitrary crash cycle (entries not yet
// admitted never reached NVM; logged entries of unretired regions roll
// back).
type Rec struct {
	Addr  int64
	Old   int64
	New   int64
	Admit int64 // persistence instant (WPQ admission); for synchronous
	// persists this equals the commit cycle
	Region int64 // global region sequence number
	Logged bool  // undo-logged at the MC (speculative or checkpoint-area)
	Core   int

	// MC and MCSeq identify the record's write pending queue admission:
	// MCSeq is the per-controller admission ordinal (FIFO arrival order =
	// drain order), 0 for synchronous persists that bypass the WPQ. The
	// recovery validator cross-checks these against the controller's drain
	// ledger to detect dropped or reordered tail entries.
	MC    int
	MCSeq int64
	// Seal is the record's integrity checksum, written by the MC alongside
	// the undo-log entry. A torn or corrupted record no longer matches its
	// seal, which recovery detects instead of silently applying a bogus
	// rollback value.
	Seal uint64
}
