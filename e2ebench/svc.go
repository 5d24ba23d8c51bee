package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hotpotato/internal/dynamic"
	"hotpotato/internal/graph"
	"hotpotato/internal/persist"
	"hotpotato/internal/service"
	"hotpotato/internal/topo"
)

// topoName is the single topology every service workload serves.
const topoName = "net"

// statsEvery is the stride of the ops that also read stats.
const statsEvery = 10

// tick advances the virtual quota clock before each op.
const tick = time.Millisecond

// restartEvery splits the advance of every restartEvery-th op in two
// halves and runs a restart cycle between them, with packets in
// flight. Each of these ops also closes a throughput window (see
// deliveredPPS).
const restartEvery = 100

// svcSpec is one service workload: a butterfly network served in
// manual-stepping mode and a seeded closed-loop op script against it.
type svcSpec struct {
	name      string
	k         int // butterfly dimension
	faultSpec string
	retry     dynamic.RetryPolicy
	tenants   []service.TenantQuota
	// ops is the op count of one round; every round replays the same
	// script against a freshly set-up service.
	ops int
	// takeover makes the restored service take over serving; otherwise
	// the cycle is a restore drill: the restored copy must report the
	// live service's state and is then discarded. A takeover with a
	// rate-limited tenant diverges from the unrestarted run, because
	// service.Restore restarts each token bucket's refill clock at the
	// restore instant (README.md, "Known divergence").
	takeover bool
	// op draws op i's batch and advance.
	op func(rng *rand.Rand, k int) (service.BatchRequest, int)
}

var svcChatty = &svcSpec{
	name: "svc-chatty",
	k:    5,
	// gold stays inside its budget; free offers about three times its
	// refill rate, so the token bucket sheds most of its packets.
	tenants: []service.TenantQuota{
		{Name: "gold", Rate: 20000, Burst: 64},
		{Name: "free", Rate: 500, Burst: 8},
	},
	ops: 4000,
	op:  chattyOp,
}

var svcBulk = &svcSpec{
	name:      "svc-bulk",
	k:         7,
	faultSpec: "flap:period=50,down=5,rate=0.2",
	retry:     dynamic.RetryPolicy{MaxAttempts: 8},
	tenants:   []service.TenantQuota{{Name: "bulk"}},
	ops:       1000,
	takeover:  true,
	op: func(*rand.Rand, int) (service.BatchRequest, int) {
		return service.BatchRequest{Tenant: "bulk", Random: 256}, 32
	},
}

// chattyOp draws a small batch: a Pareto(1.4, 2) size capped at 32,
// split between explicit level-0 → level-k pairs and engine-drawn
// random packets, for gold (70%) or free (30%); then advance(2).
func chattyOp(rng *rand.Rand, k int) (service.BatchRequest, int) {
	tenant := "gold"
	if rng.Float64() >= 0.7 {
		tenant = "free"
	}
	n := paretoSize(rng, 1.4, 2, 32)
	np := rng.Intn(n + 1)
	rows := 1 << k
	req := service.BatchRequest{Tenant: tenant, Random: n - np}
	for i := 0; i < np; i++ {
		src := topo.ButterflyNode(nil, k, rng.Intn(rows), 0)
		dst := topo.ButterflyNode(nil, k, rng.Intn(rows), k)
		req.Pairs = append(req.Pairs, service.Pair{Src: int(src), Dst: int(dst)})
	}
	return req, 2
}

// paretoSize draws a Pareto(α, xm) size, capped (the cmd/loadgen draw).
func paretoSize(rng *rand.Rand, alpha, xm float64, limit int) int {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	n := int(math.Ceil(xm * math.Pow(u, -1/alpha)))
	return min(max(n, 1), limit)
}

// svcOp is one closed-loop op: submit a batch, advance, sometimes read
// stats, sometimes restart the service halfway through the advance (and
// then always read stats).
type svcOp struct {
	batch   service.BatchRequest
	advance int
	stats   bool
	restart bool
}

func (op *svcOp) size() int { return len(op.batch.Pairs) + len(op.batch.Paths) + op.batch.Random }

// advances returns the advance calls the op makes: one, or two halves
// around a restart cycle.
func (op *svcOp) advances() []int {
	if op.restart && op.advance > 1 {
		return []int{op.advance / 2, op.advance - op.advance/2}
	}
	return []int{op.advance}
}

// script is the seeded op sequence of one round.
func (w *svcSpec) script(seed int64) []svcOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]svcOp, w.ops)
	for i := range ops {
		b, adv := w.op(rng, w.k)
		restart := (i+1)%restartEvery == 0
		ops[i] = svcOp{
			batch:   b,
			advance: adv,
			stats:   (i+1)%statsEvery == 0 || restart,
			restart: restart,
		}
	}
	return ops
}

// topology is the service configuration of one round.
func (w *svcSpec) topology(g *graph.Leveled, seed int64) service.TopologyConfig {
	return service.TopologyConfig{
		Name:      topoName,
		Network:   g,
		Engine:    dynamic.Config{Seed: seed, Retry: w.retry},
		FaultSpec: w.faultSpec,
		FaultSeed: seed,
		Tenants:   w.tenants,
	}
}

// vclock is the virtual quota clock: the benchmark sets it before each
// op, so token-bucket refills (and therefore quota drops) are a pure
// function of the op index while the bucket code runs in full.
type vclock struct{ ns atomic.Int64 }

var vclockEpoch = time.Unix(1_700_000_000, 0)

func (c *vclock) now() time.Time      { return vclockEpoch.Add(time.Duration(c.ns.Load())) }
func (c *vclock) set(d time.Duration) { c.ns.Store(int64(d)) }
func clockAt(i int) time.Duration     { return time.Duration(i) * tick }

// opRecord is what the service did with one op at depth 1; the replays
// apply exactly the parts that succeeded.
type opRecord struct {
	batchOK   bool
	admitted  int
	advanced  []int  // successful advance calls, in order
	statsOK   bool   // a stats read succeeded (stats ops only)
	digest    uint64 // what it returned
	step      int
	delivered int
}

// simCounts are the simulated outcomes of one round: identical for
// every round and every replay of a seed, on any host.
type simCounts struct {
	Offered       int    `json:"offered"`
	QuotaDropped  int    `json:"quota_dropped"`
	Submitted     int    `json:"submitted"`
	Injected      int    `json:"injected"`
	Delivered     int    `json:"delivered"`
	EngineDropped int    `json:"engine_dropped"`
	Live          int    `json:"live"`
	Queued        int    `json:"queued"`
	Steps         int    `json:"steps"`
	Digest        uint64 `json:"digest"`
	// StatsDigest folds the (step, digest) pairs read at stats ops: the
	// trajectory checkpoints the restart-continuation check compares.
	StatsDigest uint64 `json:"stats_digest"`
}

func (c simCounts) dropRate() float64 {
	return ratio(float64(c.QuotaDropped+c.EngineDropped), float64(c.Offered))
}

// engineView is the part of simCounts a bare engine can reproduce (it
// has no quota stage).
func (c simCounts) engineView() simCounts {
	return simCounts{
		Submitted: c.Submitted, Injected: c.Injected, Delivered: c.Delivered,
		EngineDropped: c.EngineDropped, Live: c.Live, Queued: c.Queued,
		Steps: c.Steps, Digest: c.Digest, StatsDigest: c.StatsDigest,
	}
}

// statsFold accumulates StatsDigest.
type statsFold struct{ h uint64 }

func (f *statsFold) add(step int, digest uint64) {
	h := fnv.New64a()
	var b [24]byte
	for i, x := range []uint64{f.h, uint64(step), digest} {
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(x >> (8 * j))
		}
	}
	h.Write(b[:])
	f.h = h.Sum64()
}

// clientLedger is the client's own account of one tenant's batches.
type clientLedger struct{ offered, admitted, quotaDropped int }

// countsFromService reads a round's simulated outcome and checks
// per-tenant conservation against the client's ledger:
//
//	offered   = quota_dropped + submitted      (quota stage)
//	submitted = injected + engine_dropped + queued
//	injected  = delivered + live               (engine stage)
//
// where submitted is what the bucket let through, queued the tenant's
// pending and retrying packets and live its packets in flight, both
// counted in a snapshot of the final state.
func countsFromService(svc *service.Service, ledgers map[string]*clientLedger, fold uint64) (simCounts, []string, error) {
	st, err := svc.Stats(topoName)
	if err != nil {
		return simCounts{}, nil, fmt.Errorf("final stats: %w", err)
	}
	snap, err := svc.Snapshot()
	if err != nil {
		return simCounts{}, nil, fmt.Errorf("final snapshot: %w", err)
	}
	eng := &snap.Topologies[0].Engine
	queued := map[string]int{}
	live := map[string]int{}
	for _, p := range eng.Pending {
		queued[p.Tenant]++
	}
	for _, p := range eng.RetryQ {
		queued[p.Tenant]++
	}
	for _, p := range eng.Packets {
		live[p.Tenant]++
	}
	c := simCounts{Steps: st.Step, Digest: st.Digest, Live: st.Live, Queued: st.QueueDepth, StatsDigest: fold}
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	names := make([]string, 0, len(st.Tenants))
	for name := range st.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := st.Tenants[name]
		led := eng.Tenants[name]
		cl := ledgers[name]
		if cl == nil {
			cl = &clientLedger{}
		}
		c.Offered += ts.Offered
		c.QuotaDropped += ts.QuotaDropped
		c.Submitted += led.Submitted
		c.Injected += led.Admitted
		c.Delivered += led.Delivered
		c.EngineDropped += led.Dropped
		if ts.Offered != cl.offered || ts.QuotaDropped != cl.quotaDropped || led.Submitted != cl.admitted {
			bad("tenant %s: service ledger offered=%d quota_dropped=%d submitted=%d, client saw offered=%d quota_dropped=%d admitted=%d",
				name, ts.Offered, ts.QuotaDropped, led.Submitted, cl.offered, cl.quotaDropped, cl.admitted)
		}
		if ts.Offered != ts.QuotaDropped+led.Submitted {
			bad("tenant %s: offered %d != quota_dropped %d + submitted %d", name, ts.Offered, ts.QuotaDropped, led.Submitted)
		}
		if led.Submitted != led.Admitted+led.Dropped+queued[name] {
			bad("tenant %s: submitted %d != injected %d + engine_dropped %d + queued %d",
				name, led.Submitted, led.Admitted, led.Dropped, queued[name])
		}
		if led.Admitted != led.Delivered+live[name] {
			bad("tenant %s: injected %d != delivered %d + live %d", name, led.Admitted, led.Delivered, live[name])
		}
		if ts.Admitted != led.Admitted || ts.Delivered != led.Delivered || ts.EngineDropped != led.Dropped {
			bad("tenant %s: stats and snapshot ledgers disagree", name)
		}
	}
	if st.Live != len(eng.Packets) || st.QueueDepth != len(eng.Pending)+len(eng.RetryQ) {
		bad("stats live=%d queue=%d but snapshot holds %d packets, %d queued",
			st.Live, st.QueueDepth, len(eng.Packets), len(eng.Pending)+len(eng.RetryQ))
	}
	return c, problems, nil
}

// sameState checks that a restored service reports the state of the
// one it was snapshotted from.
func sameState(live, restored *service.Service) error {
	a, err := live.Stats(topoName)
	if err != nil {
		return err
	}
	b, err := restored.Stats(topoName)
	if err != nil {
		return err
	}
	if ja, jb := mustJSON(a), mustJSON(b); ja != jb {
		return fmt.Errorf("restored service reports %s, live service %s", jb, ja)
	}
	return nil
}

// svcPass aggregates one series of depth-1 rounds (HTTP over loopback).
type svcPass struct {
	rounds int
	ops    int           // ops that completed every request
	opTime time.Duration // summed over all ops, restart cycles excluded
	lat    sample        // op latency, ms, completed ops
	// Throughput windows: per round, each window's delivered count and
	// op time (the counts are identical every round).
	winDelivered      [][]int
	winTime           [][]time.Duration
	setup             sample      // per round, s
	restart           sample      // per cycle, s
	counts            []simCounts // per round
	roundFailed       []bool      // per round: some op failed
	log               []opRecord  // round 0
	attempted, failed int
	problems          []string

	// Traced passes only.
	req                  map[string]*sample // µs per request kind
	stages               map[string]*sample // restart stages, ms; snapshot size, KB
	counters             runtimeCounters    // op phases only
	dials, sent, receive int64
}

// svcHooks inject failures; the benchmark's tests use them to show
// failures are counted, never skipped.
type svcHooks struct {
	// failRequest makes the server answer 500 instead of serving r.
	failRequest func(r *http.Request) bool
	// corrupt rewrites the encoded snapshot of restart cycle n.
	corrupt func(n int, data []byte) []byte
}

// swapHandler serves the current service; a restart cycle swaps in the
// restored one while the listener and the client's connection stay up.
type swapHandler struct {
	cur  atomic.Value // http.Handler
	fail func(*http.Request) bool
}

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.fail != nil && h.fail(r) {
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	}
	h.cur.Load().(http.Handler).ServeHTTP(w, r)
}

// client is the closed-loop HTTP client: one keep-alive connection,
// with dials and bytes counted at the connection.
type client struct {
	hc                   *http.Client
	base                 string
	dials, sent, receive atomic.Int64
}

type countingConn struct {
	net.Conn
	c *client
}

func (cc countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.receive.Add(int64(n))
	return n, err
}

func (cc countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.sent.Add(int64(n))
	return n, err
}

func newClient(base string) *client {
	c := &client{base: base}
	var d net.Dialer
	c.hc = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Proxy: nil,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				conn, err := d.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return countingConn{Conn: conn, c: c}, nil
			},
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
	return c
}

// call sends one JSON request and decodes the 2xx JSON reply into out;
// a non-2xx status is an error.
func (c *client) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // the encoder's trailing newline
	return nil
}

// timed runs f as one traced call of kind under parent.
func (p *svcPass) timed(tr *tracer, kind string, parent, op int32, f func() error) error {
	if tr == nil {
		return f()
	}
	start := time.Now()
	err := f()
	end := time.Now()
	tr.add("http."+kind, start, end, parent, op)
	p.req[kind].add(float64(end.Sub(start).Nanoseconds()) / 1e3)
	return err
}

// runSvcPass runs depth-1 rounds: until budget has elapsed (at least
// one round), or exactly fixedRounds rounds when that is positive.
func runSvcPass(w *svcSpec, seed int64, script []svcOp, budget time.Duration, fixedRounds int, tr *tracer, hooks svcHooks) (*svcPass, error) {
	p := &svcPass{}
	if tr != nil {
		p.req = map[string]*sample{"batch": {}, "advance": {}, "stats": {}}
		p.stages = map[string]*sample{"snapshot": {}, "encode": {}, "decode": {}, "restore": {}, "kb": {}}
	}
	start := time.Now()
	for r := 0; ; r++ {
		if fixedRounds > 0 && r == fixedRounds {
			break
		}
		if fixedRounds <= 0 && r > 0 && time.Since(start) >= budget {
			break
		}
		if err := p.round(w, seed, script, r, tr, hooks); err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, r, err)
		}
		p.rounds++
	}
	// Rounds whose ops all succeeded must simulate the same outcome; a
	// failed op changes its round's trajectory and is already counted.
	ref := -1
	for r, c := range p.counts {
		if p.roundFailed[r] {
			continue
		}
		if ref < 0 {
			ref = r
		} else if c != p.counts[ref] {
			p.problems = append(p.problems, fmt.Sprintf("determinism: round %d simulated %+v, round %d %+v", r, c, ref, p.counts[ref]))
		}
	}
	return p, nil
}

// round sets up a fresh service behind a loopback listener, runs the
// script over HTTP, and checks the outcome.
func (p *svcPass) round(w *svcSpec, seed int64, script []svcOp, r int, tr *tracer, hooks svcHooks) error {
	// Every round starts from a collected heap, so set-up and the
	// timed phase do not inherit the previous round's garbage.
	runtime.GC()
	t0 := time.Now()
	clk := &vclock{}
	g, err := topo.Butterfly(w.k)
	if err != nil {
		return err
	}
	svc, err := service.New([]service.TopologyConfig{w.topology(g, seed)}, service.Options{Now: clk.now})
	if err != nil {
		return err
	}
	defer func() { svc.Close() }()
	sh := &swapHandler{fail: hooks.failRequest}
	sh.cur.Store(svc.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: sh, ReadHeaderTimeout: 10 * time.Second}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed after Close below
	}()
	cl := newClient("http://" + ln.Addr().String() + "/v1/topologies/" + topoName)
	defer func() {
		cl.hc.CloseIdleConnections()
		srv.Close()
		wg.Wait()
	}()
	// Warm-up: open the keep-alive connection and touch the handler.
	for i := 0; i < 3; i++ {
		var st service.TopologyStats
		if err := cl.call(http.MethodGet, "", nil, &st); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	p.setup.add(time.Since(t0).Seconds())

	ledgers := map[string]*clientLedger{}
	for _, q := range w.tenants {
		ledgers[q.Name] = &clientLedger{}
	}
	var fold statsFold
	var opTime time.Duration
	// Throughput windows close at the stats reads of restart ops:
	// delivered and op time since the previous window's close.
	var winDelivered []int
	var winTime []time.Duration
	lastDelivered, lastTime := 0, time.Duration(0)
	restarts, failedOps := 0, 0
	var base, inRestart runtimeCounters
	var sent0, recv0 int64
	if tr != nil {
		base = readCounters()
		sent0, recv0 = cl.sent.Load(), cl.receive.Load()
	}
	log := make([]opRecord, len(script))
	for i := range script {
		op := &script[i]
		rec := &log[i]
		clk.set(clockAt(i))
		opID := int32(r*len(script) + i)
		opStart := time.Now()
		opSpan := tr.open("op", opStart, -1, opID)
		var failures []error
		var res service.BatchResult
		err := p.timed(tr, "batch", opSpan, opID, func() error {
			return cl.call(http.MethodPost, "/batches", op.batch, &res)
		})
		if err == nil {
			rec.batchOK, rec.admitted = true, res.Admitted
			cl := ledgers[op.batch.Tenant]
			cl.offered += res.Offered
			cl.admitted += res.Admitted
			cl.quotaDropped += res.QuotaDropped
			if res.Offered != op.size() || len(res.Rejected) > 0 {
				p.problems = append(p.problems, fmt.Sprintf("op %d: batch of %d answered offered=%d rejected=%v", i, op.size(), res.Offered, res.Rejected))
			}
		} else {
			failures = append(failures, err)
		}
		var excluded time.Duration // restart cycle inside the op
		for j, n := range op.advances() {
			if j == 1 {
				// Neither the op nor the runtime counters see the cycle,
				// nor the collection that precedes it so that the cycle
				// does not pay GC assists for the ops' garbage.
				rs := time.Now()
				var c0 runtimeCounters
				if tr != nil {
					c0 = readCounters()
				}
				runtime.GC()
				next, err := p.restartCycle(w, svc, clk, sh, restarts, tr, opSpan, opID, hooks)
				if tr != nil {
					inRestart = inRestart.plus(readCounters().since(c0))
				}
				restarts++
				p.attempted++
				if err != nil {
					p.failed++
				} else {
					svc = next
				}
				excluded += time.Since(rs)
			}
			var adv struct {
				Step int `json:"step"`
			}
			err := p.timed(tr, "advance", opSpan, opID, func() error {
				return cl.call(http.MethodPost, "/advance", map[string]int{"steps": n}, &adv)
			})
			if err == nil {
				rec.advanced = append(rec.advanced, n)
			} else {
				failures = append(failures, err)
			}
		}
		if op.stats {
			var st service.TopologyStats
			err := p.timed(tr, "stats", opSpan, opID, func() error {
				return cl.call(http.MethodGet, "", nil, &st)
			})
			if err == nil {
				rec.statsOK, rec.digest, rec.step = true, st.Digest, st.Step
				fold.add(st.Step, st.Digest)
				rec.delivered = st.Delivered
			} else {
				failures = append(failures, err)
			}
		}
		end := time.Now()
		tr.close(opSpan, end)
		d := end.Sub(opStart) - excluded
		opTime += d
		if rec.statsOK && op.restart {
			winDelivered = append(winDelivered, rec.delivered-lastDelivered)
			winTime = append(winTime, opTime-lastTime)
			lastDelivered, lastTime = rec.delivered, opTime
		}
		p.attempted++
		if len(failures) > 0 {
			p.failed++
			failedOps++
		} else {
			p.ops++
			p.lat.add(float64(d.Nanoseconds()) / 1e6)
		}
	}
	if tr != nil {
		p.counters = p.counters.plus(readCounters().since(base).since(inRestart))
		p.dials += cl.dials.Load() // the whole round: warm-up opens the connection
		p.sent += cl.sent.Load() - sent0
		p.receive += cl.receive.Load() - recv0
	}
	p.opTime += opTime

	c, problems, err := countsFromService(svc, ledgers, fold.h)
	if err != nil {
		return err
	}
	p.problems = append(p.problems, problems...)
	p.counts = append(p.counts, c)
	p.roundFailed = append(p.roundFailed, failedOps > 0)
	p.winDelivered = append(p.winDelivered, winDelivered)
	p.winTime = append(p.winTime, winTime)
	if r == 0 {
		p.log = log
	}
	return nil
}

// deliveredPPS is the pass's throughput: packets delivered over host
// seconds of op time, with each window's time taken as its median over
// the rounds. Every round replays the same script, so a window's
// duration differs between rounds only by host noise, and a stall of
// the host lands in one round's copy of a window, not in the median.
// A window whose delivered count differs from round 0's (a failed
// stats read shifted its boundary) is left out of its median.
func (p *svcPass) deliveredPPS() float64 {
	if len(p.winTime) == 0 {
		return 0
	}
	delivered, secs := 0, 0.0
	for j := range p.winTime[0] {
		var t sample
		for r := range p.winTime {
			if j < len(p.winTime[r]) && p.winDelivered[r][j] == p.winDelivered[0][j] {
				t.add(p.winTime[r][j].Seconds())
			}
		}
		delivered += p.winDelivered[0][j]
		secs += t.median()
	}
	return ratio(float64(delivered), secs)
}

// restartCycle is the restart path of a serving process: snapshot →
// encode → decode → restore. In a takeover the restored service then
// serves the listener and the old one stops; in a drill the restored
// copy must report the live state and is closed. It returns the
// service that serves next. On error the old service keeps serving and
// the cycle counts as failed.
func (p *svcPass) restartCycle(w *svcSpec, cur *service.Service, clk *vclock, sh *swapHandler, n int, tr *tracer, parent, op int32, hooks svcHooks) (*service.Service, error) {
	t0 := time.Now()
	snap, err := cur.Snapshot()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	var buf bytes.Buffer
	if err := persist.WriteServiceSnapshot(&buf, snap); err != nil {
		return nil, err
	}
	t2 := time.Now()
	data := buf.Bytes()
	if hooks.corrupt != nil {
		data = hooks.corrupt(n, data)
	}
	back, err := persist.ReadServiceSnapshot(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	next, err := service.Restore(back, service.Options{Now: clk.now})
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	if w.takeover {
		sh.cur.Store(next.Handler())
		cur.Close()
	} else {
		if err := sameState(cur, next); err != nil {
			p.problems = append(p.problems, fmt.Sprintf("restore drill %d: %v", n, err))
		}
		next.Close()
		next = cur
	}
	p.restart.add(t4.Sub(t0).Seconds())
	if tr != nil {
		rs := tr.add("restart", t0, t4, parent, op)
		tr.add("service.snapshot", t0, t1, rs, op)
		tr.add("persist.encode", t1, t2, rs, op)
		tr.add("persist.decode", t2, t3, rs, op)
		tr.add("service.restore", t3, t4, rs, op)
		ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
		p.stages["snapshot"].add(ms(t0, t1))
		p.stages["encode"].add(ms(t1, t2))
		p.stages["decode"].add(ms(t2, t3))
		p.stages["restore"].add(ms(t3, t4))
		p.stages["kb"].add(float64(buf.Len()) / 1024)
	}
	return next, nil
}
