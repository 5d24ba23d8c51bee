package main

import (
	"fmt"
	"time"

	"hotpotato/internal/dynamic"
	"hotpotato/internal/faults"
	"hotpotato/internal/graph"
	"hotpotato/internal/service"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
)

// replayPass aggregates rounds of one replay depth: depth 2 calls the
// Service methods in process, depth 3 drives a dynamic.Engine directly.
// Both apply exactly the parts of each op that succeeded at depth 1,
// without restarts.
type replayPass struct {
	ops      int
	opTime   time.Duration
	call     map[string]*sample // µs per call kind
	counters runtimeCounters
	counts   simCounts // round 0
	problems []string

	// Depth 3 only.
	steps        int
	submitted    int
	newEngine    sample // ms
	liveSum      float64
	liveN        int
	queueMax     int
	result       dynamic.Result // round 0, as Peek returns it
	evals, downs int
	evalNs       float64
}

func newReplayPass() *replayPass {
	return &replayPass{call: map[string]*sample{"submit": {}, "advance": {}, "stats": {}}}
}

func (p *replayPass) checkRound(r int, c simCounts, what string) {
	if r == 0 {
		p.counts = c
		return
	}
	if c != p.counts {
		p.problems = append(p.problems, fmt.Sprintf("determinism: %s round %d simulated %+v, round 0 %+v", what, r, c, p.counts))
	}
}

// timed runs f as one traced call of kind.
func (p *replayPass) timed(tr *tracer, name, kind string, parent, op int32, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	tr.add(name, start, end, parent, op)
	p.call[kind].add(float64(end.Sub(start).Nanoseconds()) / 1e3)
	return err
}

// replayService runs rounds of the script through Service methods in
// process. A nil log replays every op as if it had fully succeeded
// (the different-seed check has no depth-1 run behind it).
func replayService(w *svcSpec, seed int64, script []svcOp, log []opRecord, rounds int, tr *tracer) (*replayPass, error) {
	p := newReplayPass()
	base := readCounters()
	for r := 0; r < rounds; r++ {
		c, err := p.serviceRound(w, seed, script, log, r, tr)
		if err != nil {
			return nil, fmt.Errorf("%s depth 2 round %d: %w", w.name, r, err)
		}
		p.checkRound(r, c, "depth 2")
	}
	p.counters = readCounters().since(base)
	return p, nil
}

func (p *replayPass) serviceRound(w *svcSpec, seed int64, script []svcOp, log []opRecord, r int, tr *tracer) (simCounts, error) {
	clk := &vclock{}
	g, err := topo.Butterfly(w.k)
	if err != nil {
		return simCounts{}, err
	}
	svc, err := service.New([]service.TopologyConfig{w.topology(g, seed)}, service.Options{Now: clk.now})
	if err != nil {
		return simCounts{}, err
	}
	defer svc.Close()
	ledgers := map[string]*clientLedger{}
	for _, q := range w.tenants {
		ledgers[q.Name] = &clientLedger{}
	}
	var fold statsFold
	for i := range script {
		op := &script[i]
		rec := fullRecord(op)
		if log != nil {
			rec = log[i]
		}
		clk.set(clockAt(i))
		opID := int32(r*len(script) + i)
		start := time.Now()
		opSpan := tr.open("op", start, -1, opID)
		if rec.batchOK {
			var res service.BatchResult
			err := p.timed(tr, "service.submit", "submit", opSpan, opID, func() error {
				var err error
				res, err = svc.SubmitBatch(topoName, op.batch)
				return err
			})
			if err != nil {
				return simCounts{}, fmt.Errorf("op %d: %w", i, err)
			}
			if log != nil && res.Admitted != rec.admitted {
				p.problems = append(p.problems, fmt.Sprintf("depth 2 op %d admitted %d, depth 1 admitted %d", i, res.Admitted, rec.admitted))
			}
			cl := ledgers[op.batch.Tenant]
			cl.offered += res.Offered
			cl.admitted += res.Admitted
			cl.quotaDropped += res.QuotaDropped
		}
		for _, n := range rec.advanced {
			if err := p.timed(tr, "service.advance", "advance", opSpan, opID, func() error {
				_, err := svc.Advance(topoName, n)
				return err
			}); err != nil {
				return simCounts{}, fmt.Errorf("op %d: %w", i, err)
			}
		}
		if rec.statsOK {
			var st service.TopologyStats
			if err := p.timed(tr, "service.stats", "stats", opSpan, opID, func() error {
				var err error
				st, err = svc.Stats(topoName)
				return err
			}); err != nil {
				return simCounts{}, fmt.Errorf("op %d: %w", i, err)
			}
			fold.add(st.Step, st.Digest)
			if log != nil && (st.Digest != rec.digest || st.Step != rec.step) {
				p.problems = append(p.problems, fmt.Sprintf("restart continuation: op %d depth 1 read step %d digest %x, unrestarted replay step %d digest %x",
					i, rec.step, rec.digest, st.Step, st.Digest))
			}
		}
		end := time.Now()
		tr.close(opSpan, end)
		p.opTime += end.Sub(start)
		p.ops++
	}
	c, problems, err := countsFromService(svc, ledgers, fold.h)
	p.problems = append(p.problems, problems...)
	return c, err
}

// fullRecord is the record of an op whose every request succeeded.
func fullRecord(op *svcOp) opRecord {
	return opRecord{batchOK: true, advanced: op.advances(), statsOK: op.stats}
}

// faultCounter wraps a bound fault model, counting evaluations and
// keeping a prefix of their arguments so their cost can be timed
// apart from the engine afterwards.
type faultCounter struct {
	model        sim.FaultModel
	evals, downs int
	args         []faultArg
}

type faultArg struct {
	e graph.EdgeID
	t int
}

const faultArgsKept = 1 << 16

func (fc *faultCounter) eval(e graph.EdgeID, t int) bool {
	fc.evals++
	if len(fc.args) < faultArgsKept {
		fc.args = append(fc.args, faultArg{e, t})
	}
	down := fc.model(e, t)
	if down {
		fc.downs++
	}
	return down
}

// evalNs times the bound model over the kept arguments.
func (fc *faultCounter) evalNs() float64 {
	if len(fc.args) == 0 {
		return 0
	}
	const reps = 8
	downs := 0
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, a := range fc.args {
			if fc.model(a.e, a.t) {
				downs++
			}
		}
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(reps*len(fc.args))
	sinkInt += downs
	return ns
}

// sinkInt keeps timed loops from being optimized away.
var sinkInt int

// replayEngine runs rounds of the logged ops straight into a
// dynamic.Engine with the service's Config, submitting only the prefix
// of each batch the quota admitted at depth 1.
func replayEngine(w *svcSpec, seed int64, script []svcOp, log []opRecord, rounds int, tr *tracer) (*replayPass, error) {
	p := newReplayPass()
	base := readCounters()
	for r := 0; r < rounds; r++ {
		c, err := p.engineRound(w, seed, script, log, r, tr)
		if err != nil {
			return nil, fmt.Errorf("%s depth 3 round %d: %w", w.name, r, err)
		}
		p.checkRound(r, c, "depth 3")
	}
	p.counters = readCounters().since(base)
	return p, nil
}

func (p *replayPass) engineRound(w *svcSpec, seed int64, script []svcOp, log []opRecord, r int, tr *tracer) (simCounts, error) {
	g, err := topo.Butterfly(w.k)
	if err != nil {
		return simCounts{}, err
	}
	cfg := dynamic.Config{Seed: seed, Retry: w.retry}
	var fc *faultCounter
	if w.faultSpec != "" {
		camp, err := faults.Parse(w.faultSpec)
		if err != nil {
			return simCounts{}, err
		}
		fc = &faultCounter{model: camp.Model(g, seed), args: make([]faultArg, 0, faultArgsKept)}
		cfg.Faults = fc.eval
	}
	t0 := time.Now()
	eng, err := dynamic.NewEngine(g, cfg)
	if err != nil {
		return simCounts{}, err
	}
	t1 := time.Now()
	tr.add("dynamic.new_engine", t0, t1, -1, int32(r*len(script)))
	p.newEngine.add(float64(t1.Sub(t0).Nanoseconds()) / 1e6)

	var fold statsFold
	for i := range script {
		op := &script[i]
		rec := log[i]
		opID := int32(r*len(script) + i)
		start := time.Now()
		opSpan := tr.open("op", start, -1, opID)
		if rec.batchOK {
			np := min(rec.admitted, len(op.batch.Pairs))
			rest := rec.admitted - np
			if err := p.timed(tr, "dynamic.submit", "submit", opSpan, opID, func() error {
				for _, pr := range op.batch.Pairs[:np] {
					if err := eng.Submit(op.batch.Tenant, graph.NodeID(pr.Src), graph.NodeID(pr.Dst)); err != nil {
						return err
					}
				}
				if rest > 0 {
					return eng.SubmitRandom(op.batch.Tenant, rest)
				}
				return nil
			}); err != nil {
				return simCounts{}, fmt.Errorf("op %d: %w", i, err)
			}
			p.submitted += rec.admitted
			p.queueMax = max(p.queueMax, eng.QueueDepth())
		}
		for _, n := range rec.advanced {
			if err := p.timed(tr, "dynamic.step", "advance", opSpan, opID, func() error {
				for s := 0; s < n; s++ {
					if err := eng.Step(); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return simCounts{}, fmt.Errorf("op %d: %w", i, err)
			}
			p.steps += n
		}
		if rec.statsOK {
			var digest uint64
			var step int
			_ = p.timed(tr, "dynamic.read", "stats", opSpan, opID, func() error {
				digest, step = eng.Digest(), eng.StepCount()
				return nil
			})
			fold.add(step, digest)
			if digest != rec.digest || step != rec.step {
				p.problems = append(p.problems, fmt.Sprintf("depth 3 op %d: step %d digest %x, depth 1 read step %d digest %x",
					i, step, digest, rec.step, rec.digest))
			}
		}
		end := time.Now()
		tr.close(opSpan, end)
		p.opTime += end.Sub(start)
		p.ops++
		p.liveSum += float64(eng.Live())
		p.liveN++
	}
	res := eng.Peek()
	if r == 0 {
		p.result = res
		if fc != nil {
			p.evals, p.downs = fc.evals, fc.downs
			p.evalNs = fc.evalNs()
		}
	}
	c := simCounts{
		Delivered: res.Delivered, EngineDropped: res.Dropped,
		Live: eng.Live(), Queued: eng.QueueDepth(), Steps: eng.StepCount(),
		Digest: eng.Digest(), StatsDigest: fold.h,
	}
	for _, tt := range eng.Tenants() {
		c.Submitted += tt.Submitted
		c.Injected += tt.Admitted
	}
	return c, nil
}
