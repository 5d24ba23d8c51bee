package dynamic

import (
	"fmt"
	"math/rand"

	"hotpotato/internal/graph"
	"hotpotato/internal/persist"
)

// TenantTotals is the engine-side per-tenant ledger (see
// persist.TenantTotals for field semantics).
type TenantTotals = persist.TenantTotals

// pendingEntry is a submitted-but-not-yet-injected packet request from
// a service batch. Random entries draw src/dst/path from the engine RNG
// at injection time; src/dst entries draw only the path; explicit-path
// entries consume no randomness. Drawing late keeps the RNG stream a
// pure function of the injection sequence, which is what makes a
// snapshot-restored run replay byte-identically. The path backing, when
// non-nil, is a pooled buffer owned by the engine.
type pendingEntry struct {
	tenant int32 // interned; -1 anonymous
	random bool
	src    graph.NodeID // NoNode when random
	dst    graph.NodeID
	path   []graph.EdgeID // nil unless explicit or already drawn
}

// Engine is the open-system simulator as an explicit state machine:
// NewEngine seeds it, Step advances it one slotted step, Submit* feed
// it externally-requested packets (the routing-service path), Snapshot
// freezes it between steps and Restore thaws it in another process.
// Run wraps it for the classic closed-loop λ-arrival simulation.
//
// The hot path is structure-of-arrays, the design the batch engine
// proved out (internal/sim, PRs 6/7): packet state lives in flat
// parallel columns indexed by a free-listed packet slot, per-node
// occupancy is counts+offsets carved from one arena sized by the
// occ(v) <= deg(v) invariant, and the per-step request/grant/deflect
// bookkeeping is epoch-stamped scratch keyed by transmission slot
// (edge, direction) — no maps, no per-step allocation once warm. Paths
// sit in per-slot pooled buffers with prepend headroom so a deflection
// retreats in place instead of copy-prepending.
//
// An Engine is not safe for concurrent use; the service serializes all
// access through each topology's goroutine.
type Engine struct {
	g   *graph.Leveled
	cfg Config
	res *Result

	src *sm64
	rng *rand.Rand

	sources []graph.NodeID

	// cone indexes every forward-reachable (src, dst) pair: the path
	// counts uniform path draws weight each hop by, and each source's
	// destination list. Built once; no draw ever recounts.
	cone coneIndex

	// Packet columns, indexed by slot. A slot is recycled through free
	// when its packet delivers; its path buffer stays with the slot so
	// a warm engine re-injects without allocating.
	pID      []int
	pTenant  []int32 // interned tenant id; -1 anonymous (λ-arrivals)
	pCur     []int32
	pDst     []int32
	pArrEdge []int32 // -1 = never moved
	pArrDir  []uint8
	pInject  []int
	pBuf     [][]graph.EdgeID // pooled path backing with headroom
	pHead    []int32          // index of the path head within pBuf
	pLen     []int32          // remaining path length

	free []int32 // recycled packet slots
	live []int32 // live slots in injection order

	// Per-node occupancy: atList[atOff[v]:atOff[v]+atN[v]] are the
	// slots parked at node v, in live order. The arena holds exactly
	// sum(deg(v)) = 2|E| entries: occupancy can never exceed degree —
	// after an injection occ(v) <= 1 (the source must be empty), and in
	// a step where any packet stays at v every healthy out-slot of v
	// carries a mover away while arrivals only come over healthy edges,
	// so arrivals <= departures and occ(v) never grows past deg(v).
	atOff  []int32 // node -> arena offset (prefix sums of degree), len N+1
	atN    []int32 // node -> current occupancy
	atList []int32 // the arena

	// Per-transmission-slot scratch (slot si = edge<<1 | direction),
	// epoch-stamped so steps never clear it: a stamp != epoch means
	// "untouched this step".
	slotEpoch  []uint32
	slotCount  []int32 // request contenders this step
	slotWinner []int32 // surviving contender (reservoir selection)
	usedEpoch  []uint32
	winSlots   []int32 // slots that saw >= 1 request this step
	epoch      uint32

	// Per-packet-slot step scratch, same epoch discipline.
	grantEpoch []uint32
	grantSlot  []int32
	stallEpoch []uint32

	// Forward-memory bitsets (was a forward move committed on edge e
	// last step?) with dirty lists so clears cost O(moves), not O(E).
	prevFwd, curFwd           []uint64
	prevFwdDirty, curFwdDirty []int32

	// qBufPool recycles path backings of pending/retry entries.
	qBufPool [][]graph.EdgeID

	retryQ  []retryEntry
	pending []pendingEntry
	nextID  int

	lat             latReservoir
	inFlightSum     float64
	inFlightSamples int

	// Window accumulators (the open partial window).
	wDelivered, wSpan, wStart               int
	wLatSum, wFlySum, wAvailSum             float64
	wPrevBlocked, wPrevStalls, wPrevDropped int

	step   int
	digest uint64

	// Tenant interning: the hot path carries int32 ids and indexes
	// tenantTT; the name-keyed map is maintained for the Tenants() API
	// and snapshots. All three share the same *TenantTotals values.
	tenantID    map[string]int32
	tenantNames []string
	tenantTT    []*TenantTotals
	tenants     map[string]*TenantTotals

	finalized bool
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// pathHeadroom is the slack reserved on each side of a freshly
// installed path so the first deflections prepend in place.
const pathHeadroom = 8

// foldDigest folds one 64-bit word into the FNV-1a running digest.
func foldDigest(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

// NewEngine validates the configuration and builds a ready engine.
// Unlike Run, Steps may be 0: the engine then has no horizon and steps
// for as long as the caller keeps calling Step (the service mode).
func NewEngine(g *graph.Leveled, cfg Config) (*Engine, error) {
	if cfg.Lambda < 0 || cfg.Lambda > 1 {
		return nil, fmt.Errorf("dynamic: lambda must be in [0,1], got %g", cfg.Lambda)
	}
	if cfg.Steps < 0 {
		return nil, fmt.Errorf("dynamic: steps must be >= 0, got %d", cfg.Steps)
	}
	if cfg.Steps > 0 && cfg.Warmup >= cfg.Steps {
		return nil, fmt.Errorf("dynamic: warmup %d >= steps %d", cfg.Warmup, cfg.Steps)
	}
	if cfg.Warmup < 0 {
		return nil, fmt.Errorf("dynamic: negative warmup %d", cfg.Warmup)
	}
	if cfg.Retry.MaxAttempts < 0 || cfg.Retry.BaseDelay < 0 || cfg.Retry.MaxDelay < 0 {
		return nil, fmt.Errorf("dynamic: negative retry policy field: %+v", cfg.Retry)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4096
	}
	e := &Engine{
		g:        g,
		cfg:      cfg,
		res:      &Result{Cfg: cfg},
		src:      newSM64(cfg.Seed),
		lat:      newLatReservoir(cfg.Seed),
		tenantID: make(map[string]int32, 8),
		tenants:  make(map[string]*TenantTotals, 8),
	}
	e.rng = rand.New(e.src)

	// Eligible sources: every node with a forward move to make.
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if g.Node(v).Level < g.Depth() && len(g.Node(v).Up) > 0 {
			e.sources = append(e.sources, v)
		}
	}
	if len(e.sources) == 0 {
		return nil, fmt.Errorf("dynamic: network has no eligible sources")
	}
	var err error
	if e.cone, err = newConeIndex(g); err != nil {
		return nil, err
	}

	nn, ne := g.NumNodes(), g.NumEdges()
	e.atOff = make([]int32, nn+1)
	for v := 0; v < nn; v++ {
		e.atOff[v+1] = e.atOff[v] + int32(g.Node(graph.NodeID(v)).Degree())
	}
	e.atN = make([]int32, nn)
	e.atList = make([]int32, e.atOff[nn])
	e.slotEpoch = make([]uint32, 2*ne)
	e.slotCount = make([]int32, 2*ne)
	e.slotWinner = make([]int32, 2*ne)
	e.usedEpoch = make([]uint32, 2*ne)
	e.winSlots = make([]int32, 0, 2*ne)
	words := (ne + 63) / 64
	e.prevFwd = make([]uint64, words)
	e.curFwd = make([]uint64, words)
	e.prevFwdDirty = make([]int32, 0, ne)
	e.curFwdDirty = make([]int32, 0, ne)

	// Preallocate every hard-bounded backing so a warm engine's Step
	// never allocates. Live packets are bounded by both the admission
	// cap and the occupancy invariant (sum over v of occ(v) <= deg(v)
	// is 2|E|), so the packet columns can be built at full size up
	// front, every slot pre-fitted with a path buffer that holds a
	// maximal forward path (depth edges) plus deflection headroom. The
	// buffers are capacity-capped windows of one arena, so a buffer that
	// must grow detaches instead of overrunning its neighbor.
	maxSlots := cfg.MaxInFlight
	if bound := 2 * ne; bound < maxSlots {
		maxSlots = bound
	}
	pathCap := g.Depth() + 2*pathHeadroom
	e.pID = make([]int, maxSlots)
	e.pTenant = make([]int32, maxSlots)
	e.pCur = make([]int32, maxSlots)
	e.pDst = make([]int32, maxSlots)
	e.pArrEdge = make([]int32, maxSlots)
	e.pArrDir = make([]uint8, maxSlots)
	e.pInject = make([]int, maxSlots)
	e.pBuf = make([][]graph.EdgeID, maxSlots)
	e.pHead = make([]int32, maxSlots)
	e.pLen = make([]int32, maxSlots)
	e.grantEpoch = make([]uint32, maxSlots)
	e.grantSlot = make([]int32, maxSlots)
	e.stallEpoch = make([]uint32, maxSlots)
	e.free = make([]int32, 0, maxSlots)
	bufArena := make([]graph.EdgeID, maxSlots*pathCap)
	for s := maxSlots - 1; s >= 0; s-- {
		e.pArrEdge[s] = -1
		e.pTenant[s] = -1
		e.pBuf[s] = bufArena[s*pathCap : (s+1)*pathCap : (s+1)*pathCap]
		e.free = append(e.free, int32(s)) // pops yield 0, 1, 2, ...
	}
	e.live = make([]int32, 0, maxSlots)

	// The queue backings and the entry-path pool have no hard bound
	// (retry depth is workload-dependent), so seed them generously:
	// exceeding these is a rare cold-path growth, not a steady leak.
	e.retryQ = make([]retryEntry, 0, 64)
	e.pending = make([]pendingEntry, 0, 64)
	e.qBufPool = make([][]graph.EdgeID, 0, 128)
	for i := 0; i < 64; i++ {
		e.qBufPool = append(e.qBufPool, make([]graph.EdgeID, 0, 16))
	}
	return e, nil
}

// internTenant maps a tenant name to its dense id, allocating the
// ledger on first sight. The anonymous tenant "" (λ-generated
// arrivals) is id -1 and has no ledger.
func (e *Engine) internTenant(name string) int32 {
	if name == "" {
		return -1
	}
	if id, ok := e.tenantID[name]; ok {
		return id
	}
	id := int32(len(e.tenantNames))
	tt := &TenantTotals{}
	e.tenantID[name] = id
	e.tenantNames = append(e.tenantNames, name)
	e.tenantTT = append(e.tenantTT, tt)
	e.tenants[name] = tt
	return id
}

// ledger returns the ledger of an interned tenant id (nil for the
// anonymous tenant) without touching a map.
func (e *Engine) ledger(id int32) *TenantTotals {
	if id < 0 {
		return nil
	}
	return e.tenantTT[id]
}

// tenantName is the inverse of internTenant, for snapshots.
func (e *Engine) tenantName(id int32) string {
	if id < 0 {
		return ""
	}
	return e.tenantNames[id]
}

// Submit enqueues one src→dst packet request for injection. The path is
// drawn (uniformly over forward paths) from the engine RNG when the
// packet is injected. Validation is immediate: an unreachable pair is
// rejected here, never mid-run.
func (e *Engine) Submit(tenant string, src, dst graph.NodeID) error {
	if int(src) < 0 || int(src) >= e.g.NumNodes() || int(dst) < 0 || int(dst) >= e.g.NumNodes() {
		return fmt.Errorf("dynamic: submit: node out of range")
	}
	if !e.cone.reaches(src, dst) {
		return fmt.Errorf("dynamic: submit: node %d cannot reach %d forward (or %d is not an eligible source)", src, dst, src)
	}
	e.offerPending(pendingEntry{tenant: e.internTenant(tenant), src: src, dst: dst})
	return nil
}

// SubmitPath enqueues a packet with a fully pre-computed forward path
// (the hop-constrained / oblivious-routing client shape). The path must
// be a contiguous forward edge sequence. The caller's slice is copied
// into a pooled buffer, never retained.
func (e *Engine) SubmitPath(tenant string, path []graph.EdgeID) error {
	if len(path) == 0 {
		return fmt.Errorf("dynamic: submit: empty path")
	}
	for i, ed := range path {
		if int(ed) < 0 || int(ed) >= e.g.NumEdges() {
			return fmt.Errorf("dynamic: submit: path edge %d out of range", i)
		}
		if i > 0 && e.g.Edge(path[i]).From != e.g.Edge(path[i-1]).To {
			return fmt.Errorf("dynamic: submit: path not contiguous at hop %d", i)
		}
	}
	src := e.g.Edge(path[0]).From
	dst := e.g.Edge(path[len(path)-1]).To
	e.offerPending(pendingEntry{
		tenant: e.internTenant(tenant), src: src, dst: dst,
		path: append(e.borrowQBuf(), path...),
	})
	return nil
}

// SubmitRandom enqueues n packets whose src/dst pairs and paths are
// drawn from the engine RNG at injection time — the deterministic
// load-generation shape (the whole run is a pure function of the
// submission sequence and the seed).
func (e *Engine) SubmitRandom(tenant string, n int) error {
	if n < 1 {
		return fmt.Errorf("dynamic: submit: random count %d < 1", n)
	}
	id := e.internTenant(tenant)
	for i := 0; i < n; i++ {
		e.offerPending(pendingEntry{tenant: id, random: true, src: graph.NoNode, dst: graph.NoNode})
	}
	return nil
}

func (e *Engine) offerPending(en pendingEntry) {
	e.res.Offered++
	if tt := e.ledger(en.tenant); tt != nil {
		tt.Submitted++
	}
	e.pending = append(e.pending, en)
}

// drawPath samples a forward src→dst path into a pooled buffer — the
// RNG consumption of paths.RandomForwardPath, without its counting pass.
func (e *Engine) drawPath(src, dst graph.NodeID) ([]graph.EdgeID, error) {
	return e.cone.appendPath(e.rng, src, dst, e.borrowQBuf())
}

// borrowQBuf takes a pooled path backing for a pending/retry entry.
func (e *Engine) borrowQBuf() []graph.EdgeID {
	if n := len(e.qBufPool); n > 0 {
		b := e.qBufPool[n-1]
		e.qBufPool = e.qBufPool[:n-1]
		return b[:0]
	}
	return make([]graph.EdgeID, 0, 16)
}

// returnQBuf puts an entry's path backing back in the pool.
func (e *Engine) returnQBuf(b []graph.EdgeID) {
	if cap(b) > 0 {
		e.qBufPool = append(e.qBufPool, b)
	}
}

// allocSlot takes a packet slot from the free list, growing the columns
// when none are available. Recycled slots keep their path buffer.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	s := int32(len(e.pID))
	e.pID = append(e.pID, 0)
	e.pTenant = append(e.pTenant, -1)
	e.pCur = append(e.pCur, 0)
	e.pDst = append(e.pDst, 0)
	e.pArrEdge = append(e.pArrEdge, -1)
	e.pArrDir = append(e.pArrDir, 0)
	e.pInject = append(e.pInject, 0)
	e.pBuf = append(e.pBuf, nil)
	e.pHead = append(e.pHead, 0)
	e.pLen = append(e.pLen, 0)
	e.grantEpoch = append(e.grantEpoch, 0)
	e.grantSlot = append(e.grantSlot, 0)
	e.stallEpoch = append(e.stallEpoch, 0)
	return s
}

// setPath installs a path into slot s's buffer, centered so both
// prepends (deflection retreats) and head pops advance in place. The
// buffer only ever grows, so a warm slot installs without allocating.
func (e *Engine) setPath(s int32, path []graph.EdgeID) {
	need := len(path) + 2*pathHeadroom
	buf := e.pBuf[s]
	if cap(buf) < need {
		buf = make([]graph.EdgeID, need)
	} else {
		buf = buf[:cap(buf)]
	}
	head := (len(buf) - len(path)) / 2
	copy(buf[head:], path)
	e.pBuf[s] = buf
	e.pHead[s] = int32(head)
	e.pLen[s] = int32(len(path))
}

// prependEdge pushes one edge in front of slot s's path head: the
// in-place replacement for the old copy-prepend on every deflection.
// When the left headroom is exhausted it recenters within the buffer
// (pops free space on the left over time) or grows it.
func (e *Engine) prependEdge(s int32, ed graph.EdgeID) {
	if e.pHead[s] == 0 {
		buf, n := e.pBuf[s], int(e.pLen[s])
		if n < len(buf) {
			shift := (len(buf) - n + 1) / 2
			copy(buf[shift:shift+n], buf[:n])
			e.pHead[s] = int32(shift)
		} else {
			nbuf := make([]graph.EdgeID, 2*len(buf)+2*pathHeadroom)
			head := (len(nbuf) - n) / 2
			copy(nbuf[head:], buf[:n])
			e.pBuf[s] = nbuf
			e.pHead[s] = int32(head)
		}
	}
	e.pHead[s]--
	e.pBuf[s][e.pHead[s]] = ed
	e.pLen[s]++
}

// parkAt appends slot s to node v's occupancy list. Overflow past
// deg(v) is impossible by the occupancy invariant (see the atOff field
// comment); it panics rather than corrupt a neighbor's list.
func (e *Engine) parkAt(v graph.NodeID, s int32) {
	n := e.atN[v]
	off := e.atOff[v]
	if off+n >= e.atOff[v+1] {
		panic(fmt.Sprintf("dynamic: node %d occupancy exceeds degree %d", v, e.atOff[v+1]-off))
	}
	e.atList[off+n] = s
	e.atN[v] = n + 1
}

// inject admits a packet at src if the source is free and the in-flight
// cap allows, returning success. The path is copied into the slot's
// pooled buffer; the caller keeps ownership of the argument.
func (e *Engine) inject(t int, tenant int32, src, dst graph.NodeID, path []graph.EdgeID) bool {
	if e.atN[src] > 0 || len(e.live) >= e.cfg.MaxInFlight {
		if len(e.live) >= e.cfg.MaxInFlight {
			e.res.Saturated = true
		}
		return false
	}
	s := e.allocSlot()
	e.pID[s] = e.nextID
	e.nextID++
	e.pTenant[s] = tenant
	e.pCur[s] = int32(src)
	e.pDst[s] = int32(dst)
	e.pArrEdge[s] = -1
	e.pArrDir[s] = 0
	e.pInject[s] = t
	e.setPath(s, path)
	e.parkAt(src, s)
	e.live = append(e.live, s)
	e.res.Admitted++
	if tt := e.ledger(tenant); tt != nil {
		tt.Admitted++
	}
	return true
}

// closeWindow flushes the open window (no-op when windowing is off or
// the window is empty). Every mean is guarded against its empty case,
// so no exported WindowStats field can be NaN or Inf — expvar cannot
// encode either, and a single poisoned window used to break the whole
// /debug/vars endpoint.
func (e *Engine) closeWindow() {
	if e.cfg.Window <= 0 || e.wSpan == 0 {
		return
	}
	ws := WindowStats{
		Start:        e.wStart,
		Delivered:    e.wDelivered,
		MeanInFlight: safeMean(e.wFlySum, e.wSpan),
		FaultBlocked: e.res.FaultBlocked - e.wPrevBlocked,
		FaultStalls:  e.res.FaultStalls - e.wPrevStalls,
		Dropped:      e.res.Dropped - e.wPrevDropped,
		Availability: safeMean(e.wAvailSum, e.wSpan),
		MeanLatency:  safeMean(e.wLatSum, e.wDelivered),
	}
	e.res.Windows = append(e.res.Windows, ws)
	if e.cfg.OnWindow != nil {
		e.cfg.OnWindow(ws, e.res)
	}
	e.wDelivered, e.wSpan = 0, 0
	e.wLatSum, e.wFlySum, e.wAvailSum = 0, 0, 0
	e.wPrevBlocked, e.wPrevStalls, e.wPrevDropped = e.res.FaultBlocked, e.res.FaultStalls, e.res.Dropped
	e.wStart = e.res.ExecutedSteps
}

// safeMean is sum/n with the empty case pinned to 0 — the NaN guard for
// every exported windowed mean.
func safeMean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FlushWindow closes the open partial window immediately (fires
// OnWindow). The graceful-drain hook: a terminating service flushes its
// last window into the live export before snapshotting.
func (e *Engine) FlushWindow() { e.closeWindow() }

func (e *Engine) down(ed graph.EdgeID, t int) bool {
	return e.cfg.Faults != nil && e.cfg.Faults(ed, t)
}

// HasWork reports whether anything is in flight or queued — the
// service's idle test (λ-driven engines always have work until their
// horizon ends).
func (e *Engine) HasWork() bool {
	return len(e.live) > 0 || len(e.pending) > 0 || len(e.retryQ) > 0
}

// StepCount returns the number of executed steps.
func (e *Engine) StepCount() int { return e.step }

// Live returns the number of in-flight packets.
func (e *Engine) Live() int { return len(e.live) }

// QueueDepth returns pending + retrying packets not yet in flight.
func (e *Engine) QueueDepth() int { return len(e.pending) + len(e.retryQ) }

// Digest returns the running trace digest: an FNV-1a hash folded over
// every delivery (id, destination, inject step, deliver step). Two runs
// with the same digest delivered the same packets at the same times —
// the equality the kill-and-restore contract is asserted with.
func (e *Engine) Digest() uint64 { return e.digest }

// Tenants returns the per-tenant ledgers (live map of live values; the
// caller must not mutate and must copy across steps).
func (e *Engine) Tenants() map[string]*TenantTotals { return e.tenants }

// Peek returns the result accumulated so far without finalizing. The
// Latency summary and AvgInFlight are only computed by Finalize.
func (e *Engine) Peek() Result { return *e.res }

// Step advances the simulation one slotted step: retries, pending
// injections, λ-arrivals, request arbitration, deflections, commit,
// window bookkeeping. It is an error to step a finalized engine.
func (e *Engine) Step() error {
	if e.finalized {
		return fmt.Errorf("dynamic: Step after Finalize")
	}
	// A step injects at most one packet per node (a source must be
	// empty), so these bounds keep both counters within the range
	// snapshots accept, and far from int overflow.
	if e.step >= persist.MaxEngineCounter || e.nextID > persist.MaxEngineCounter-e.g.NumNodes() {
		return fmt.Errorf("dynamic: step %d / next_id %d: counters exhausted (bound %d)", e.step, e.nextID, persist.MaxEngineCounter)
	}
	t := e.step
	cfg := &e.cfg
	res := e.res

	// Retry admissions first: waiting packets get the source slot ahead
	// of fresh arrivals (no new packet starves a backlogged one). The
	// queue is FIFO and consumes no randomness.
	if len(e.retryQ) > 0 {
		keep := e.retryQ[:0]
		for i := range e.retryQ {
			en := e.retryQ[i]
			if en.next > t {
				keep = append(keep, en)
				continue
			}
			res.Retried++
			if tt := e.ledger(en.tenant); tt != nil {
				tt.Retried++
			}
			if e.inject(t, en.tenant, en.src, en.dst, en.path) {
				e.returnQBuf(en.path)
				continue
			}
			en.attempts++
			if en.attempts >= cfg.Retry.MaxAttempts {
				e.dropPacket(en.tenant)
				e.returnQBuf(en.path)
				continue
			}
			en.next = t + cfg.Retry.backoff(en.attempts)
			keep = append(keep, en)
		}
		e.retryQ = keep
	}

	// Pending service submissions: FIFO, one injection attempt each;
	// blocked entries fall into the retry queue (or are dropped when
	// retry is disabled — unlike λ-arrivals, a submitted packet is
	// always accounted for as admitted or dropped).
	if len(e.pending) > 0 {
		keep := e.pending[:0]
		for i := range e.pending {
			en := e.pending[i]
			if en.random {
				s := e.sources[e.rng.Intn(len(e.sources))]
				cands := e.cone.dstsOf[s]
				if len(cands) == 0 {
					// A source with no forward-reachable destination is
					// excluded from e.sources only if it has no Up edges;
					// levelized builders guarantee candidates, but guard.
					e.dropPacket(en.tenant)
					continue
				}
				en.src, en.dst = s, cands[e.rng.Intn(len(cands))]
				en.random = false
			}
			if en.path == nil {
				path, err := e.drawPath(en.src, en.dst)
				if err != nil {
					return fmt.Errorf("dynamic: step %d: pending path draw: %w", t, err)
				}
				en.path = path
			}
			if e.inject(t, en.tenant, en.src, en.dst, en.path) {
				e.returnQBuf(en.path)
				continue
			}
			if cfg.Retry.enabled() {
				e.retryQ = append(e.retryQ, retryEntry{
					tenant: en.tenant, src: en.src, dst: en.dst, path: en.path,
					attempts: 1, next: t + cfg.Retry.backoff(1),
				})
			} else {
				e.dropPacket(en.tenant)
				e.returnQBuf(en.path)
			}
		}
		e.pending = keep
	}

	// λ-arrivals: each source draws; blocked arrivals enter the retry
	// queue (or are lost when retry is disabled). Skipped entirely at
	// λ=0 (the pure service mode) so no randomness is consumed.
	if cfg.Lambda > 0 {
		for _, s := range e.sources {
			if e.rng.Float64() >= cfg.Lambda {
				continue
			}
			res.Offered++
			cands := e.cone.dstsOf[s]
			if len(cands) == 0 {
				continue
			}
			dst := cands[e.rng.Intn(len(cands))]
			path, err := e.drawPath(s, dst)
			if err != nil {
				return err
			}
			if e.inject(t, -1, s, dst, path) {
				e.returnQBuf(path)
				continue
			}
			if cfg.Retry.enabled() {
				e.retryQ = append(e.retryQ, retryEntry{
					tenant: -1, src: s, dst: dst, path: path,
					attempts: 1, next: t + cfg.Retry.backoff(1),
				})
			} else {
				e.returnQBuf(path)
			}
		}
	}

	// Requests: every live packet chases its head; equal-priority
	// conflicts resolve by reservoir selection (1/k per contender, in
	// live order — the exact RNG consumption of the map-based engine).
	// A request for a downed edge is fault-blocked and falls through to
	// the deflection pass.
	e.epoch++
	ep := e.epoch
	e.winSlots = e.winSlots[:0]
	for _, s := range e.live {
		ed := e.pBuf[s][e.pHead[s]]
		if e.down(ed, t) {
			res.FaultBlocked++
			continue
		}
		d := e.g.DirectionFrom(ed, graph.NodeID(e.pCur[s]))
		si := int32(ed)<<1 | int32(d)
		k := int32(1)
		if e.slotEpoch[si] == ep {
			k = e.slotCount[si] + 1
		} else {
			e.slotEpoch[si] = ep
			e.winSlots = append(e.winSlots, si)
		}
		e.slotCount[si] = k
		if k == 1 || reservoirKeep(e.rng, int(k)) {
			e.slotWinner[si] = s
		}
	}
	for _, si := range e.winSlots {
		e.usedEpoch[si] = ep
		w := e.slotWinner[si]
		e.grantEpoch[w] = ep
		e.grantSlot[w] = si
	}

	// Deflect losers, in live order: arrival reversal first, then
	// safe-backward (an edge that carried a forward move last step),
	// then any backward, then any forward. Every slot a loser can claim
	// leaves its own node, so only the packets parked at the same node
	// compete for it — and those sit in live order in atList. Visiting
	// losers in live order is therefore exactly the per-node, node-ID
	// ordered sweep, without sorting the occupied nodes.
	for _, s := range e.live {
		if e.grantEpoch[s] == ep {
			continue
		}
		v := graph.NodeID(e.pCur[s])
		node := e.g.Node(v)
		assigned := false
		if ae := e.pArrEdge[s]; ae != -1 {
			rd := graph.Direction(e.pArrDir[s]).Reverse()
			si := ae<<1 | int32(rd)
			if e.usedEpoch[si] != ep && !e.down(graph.EdgeID(ae), t) {
				e.usedEpoch[si], e.grantEpoch[s], e.grantSlot[s] = ep, ep, si
				assigned = true
			}
		}
		if !assigned {
			for _, ed := range node.Down {
				si := int32(ed)<<1 | int32(graph.Backward)
				if e.usedEpoch[si] != ep && !e.down(ed, t) &&
					e.prevFwd[ed>>6]&(1<<(uint(ed)&63)) != 0 {
					e.usedEpoch[si], e.grantEpoch[s], e.grantSlot[s] = ep, ep, si
					assigned = true
					break
				}
			}
		}
		if !assigned {
			for _, ed := range node.Down {
				si := int32(ed)<<1 | int32(graph.Backward)
				if e.usedEpoch[si] != ep && !e.down(ed, t) {
					e.usedEpoch[si], e.grantEpoch[s], e.grantSlot[s] = ep, ep, si
					assigned = true
					break
				}
			}
		}
		if !assigned {
			for _, ed := range node.Up {
				si := int32(ed)<<1 | int32(graph.Forward)
				if e.usedEpoch[si] != ep && !e.down(ed, t) {
					e.usedEpoch[si], e.grantEpoch[s], e.grantSlot[s] = ep, ep, si
					assigned = true
					break
				}
			}
		}
		if !assigned {
			if cfg.Faults != nil {
				// An outage consumed the node's slack: hold in place
				// for one step, the bufferless model's local escape
				// hatch under faults.
				e.stallEpoch[s] = ep
				res.FaultStalls++
				continue
			}
			return fmt.Errorf("dynamic: step %d: node %d over capacity", t, v)
		}
		res.Deflections++
	}

	// Commit: clear occupancy (O(live), not O(N): every occupied node
	// holds a live packet) and re-park every survivor in live order —
	// the same arrival order the map engine's append-per-node sweep
	// produced.
	survivors := e.live[:0]
	for _, s := range e.live {
		e.atN[e.pCur[s]] = 0
	}
	for _, s := range e.live {
		if e.stallEpoch[s] == ep {
			survivors = append(survivors, s)
			e.parkAt(graph.NodeID(e.pCur[s]), s)
			continue
		}
		si := e.grantSlot[s]
		ed := graph.EdgeID(si >> 1)
		d := graph.Direction(si & 1)
		dest := e.g.EndpointAt(ed, d)
		if e.pLen[s] > 0 && e.pBuf[s][e.pHead[s]] == ed {
			e.pHead[s]++
			e.pLen[s]--
		} else {
			e.prependEdge(s, ed)
		}
		e.pCur[s] = int32(dest)
		e.pArrEdge[s] = int32(ed)
		e.pArrDir[s] = uint8(d)
		if d == graph.Forward {
			e.curFwd[ed>>6] |= 1 << (uint(ed) & 63)
			e.curFwdDirty = append(e.curFwdDirty, int32(ed))
		}
		if dest == graph.NodeID(e.pDst[s]) {
			res.Delivered++
			if tt := e.ledger(e.pTenant[s]); tt != nil {
				tt.Delivered++
			}
			e.digest = foldDigest(e.digest, uint64(e.pID[s]))
			e.digest = foldDigest(e.digest, uint64(e.pDst[s]))
			e.digest = foldDigest(e.digest, uint64(e.pInject[s]))
			e.digest = foldDigest(e.digest, uint64(t+1))
			if e.pInject[s] >= cfg.Warmup {
				e.lat.add(float64(t + 1 - e.pInject[s]))
			}
			if cfg.Window > 0 {
				e.wDelivered++
				e.wLatSum += float64(t + 1 - e.pInject[s])
			}
			e.free = append(e.free, s)
			continue
		}
		survivors = append(survivors, s)
		e.parkAt(dest, s)
	}
	e.live = survivors
	// Swap the forward-memory bitsets and wipe the stale side through
	// its dirty list.
	e.prevFwd, e.curFwd = e.curFwd, e.prevFwd
	e.prevFwdDirty, e.curFwdDirty = e.curFwdDirty, e.prevFwdDirty
	for _, ed := range e.curFwdDirty {
		e.curFwd[ed>>6] &^= 1 << (uint(ed) & 63)
	}
	e.curFwdDirty = e.curFwdDirty[:0]
	e.step = t + 1
	res.ExecutedSteps = e.step

	if t >= cfg.Warmup {
		e.inFlightSum += float64(len(e.live))
		e.inFlightSamples++
	}
	if len(e.live) > res.PeakInFlight {
		res.PeakInFlight = len(e.live)
	}
	if cfg.Window > 0 {
		e.wFlySum += float64(len(e.live))
		if cfg.Faults == nil {
			e.wAvailSum++
		} else {
			downEdges := 0
			for ed := 0; ed < e.g.NumEdges(); ed++ {
				if cfg.Faults(graph.EdgeID(ed), t) {
					downEdges++
				}
			}
			e.wAvailSum += 1 - float64(downEdges)/float64(e.g.NumEdges())
		}
		e.wSpan++
		if (t+1)%cfg.Window == 0 || (cfg.Steps > 0 && t == cfg.Steps-1) {
			e.closeWindow()
		}
	}
	return nil
}

// dropPacket records an abandoned packet against the engine and the
// tenant ledger.
func (e *Engine) dropPacket(tenant int32) {
	e.res.Dropped++
	if tt := e.ledger(tenant); tt != nil {
		tt.Dropped++
	}
}

// Finalize flushes the trailing partial window, computes the latency
// summary and time-averages, stamps the trace digest, and returns the
// result. Idempotent; the engine cannot step afterwards.
func (e *Engine) Finalize() *Result {
	if !e.finalized {
		e.closeWindow()
		e.res.Latency = e.lat.summary()
		e.res.AvgInFlight = safeMean(e.inFlightSum, e.inFlightSamples)
		e.res.TraceDigest = e.digest
		e.finalized = true
	}
	return e.res
}
