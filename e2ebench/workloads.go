package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"hotpotato/internal/campaign"
)

// zeroLayers sets every per-layer metric to 0; each workload then
// fills the layers it exercises. A 0 reads "this workload spends no
// time in that layer" (README.md lists which layers each one fills).
func zeroLayers(res *result) {
	for _, d := range perLayer {
		res.metrics[d.name] = 0
	}
}

// svcProcs is GOMAXPROCS for the service workloads.
const svcProcs = 1

func us(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds())/1e3, float64(n)) }

// runSvc runs a service workload: an untraced measured pass (or, with
// --trace 1, a traced depth-1 pass and replays at depths 2 and 3),
// then the correctness and determinism checks.
func runSvc(base *svcSpec, o options) (*result, error) {
	w := *base
	if o.ops > 0 {
		w.ops = o.ops
	}
	script := w.script(o.seed)
	res := &result{metrics: map[string]float64{}}
	// The closed loop has one request in flight, so a second P adds no
	// parallel work, only cross-CPU wake-ups, which on a small shared
	// host were the largest source of run-to-run spread.
	prev := runtime.GOMAXPROCS(svcProcs)
	defer runtime.GOMAXPROCS(prev)
	res.say("closed loop on GOMAXPROCS=%d", svcProcs)

	budget := o.budget()
	if o.trace {
		budget /= 2
	}
	m, err := runSvcPass(&w, o.seed, script, budget, o.rounds, nil, o.hooks)
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()
	res.attempted, res.failed = m.attempted, m.failed
	res.problems = append(res.problems, m.problems...)
	counts := m.counts[0]
	res.say("sim: %s", mustJSON(counts))
	res.say("drop_rate=%.6g (quota %d + engine %d of %d offered; deterministic per seed)",
		counts.dropRate(), counts.QuotaDropped, counts.EngineDropped, counts.Offered)
	res.say("rounds=%d of %d ops; set-ups=%d; restart cycles=%d", m.rounds, len(script), m.setup.n(), m.restart.n())
	res.say("op latency: %s", m.lat.stamp())
	res.say("delivered_pps over %d windows of %d ops, each at its median time over %d rounds", len(m.winTime[0]), restartEvery, m.rounds)

	// The restarted trajectory must match an unrestarted replay, op by
	// op at every stats read and in the final counts.
	d2, err := replayService(&w, o.seed, script, m.log, 1, nil)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, d2.problems...)
	if d2.counts != counts {
		res.problem("restart continuation: unrestarted replay ends at %+v, restarted run at %+v", d2.counts, counts)
	}
	// A different seed must change the simulated outcome.
	other, err := replayService(&w, o.seed+1, w.script(o.seed+1), nil, 1, nil)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, other.problems...)
	if other.counts.Digest == counts.Digest || other.counts == counts {
		res.problem("determinism: seed %d and seed %d simulate the same outcome %+v", o.seed, o.seed+1, counts)
	}

	if !o.trace {
		res.metrics["setup_s"] = m.setup.median()
		res.metrics["delivered_pps"] = m.deliveredPPS()
		res.metrics["op_p50_ms"] = m.lat.quantile(0.5)
		res.metrics["op_p90_ms"] = m.lat.quantile(0.9)
		res.metrics["restart_s"] = m.restart.median()
		res.metrics["peak_rss_mb"] = peak
		return res, nil
	}
	return res, traceSvc(&w, o, script, m, res)
}

// traceSvc runs the traced depth-1 pass over as many rounds as the
// untraced pass m made, replays its op log at depths 2 and 3, checks
// the three depths agree, and fills the per-layer metrics.
func traceSvc(w *svcSpec, o options, script []svcOp, m *svcPass, res *result) error {
	tr := newTracer()
	d1, err := runSvcPass(w, o.seed, script, 0, m.rounds, tr, o.hooks)
	if err != nil {
		return err
	}
	res.attempted += d1.attempted
	res.failed += d1.failed
	res.problems = append(res.problems, d1.problems...)
	d2, err := replayService(w, o.seed, script, d1.log, m.rounds, tr)
	if err != nil {
		return err
	}
	d3, err := replayEngine(w, o.seed, script, d1.log, m.rounds, tr)
	if err != nil {
		return err
	}
	res.problems = append(res.problems, d2.problems...)
	res.problems = append(res.problems, d3.problems...)
	c1 := d1.counts[0]
	if d2.counts != c1 {
		res.problem("depth 2 ends at %+v, depth 1 at %+v", d2.counts, c1)
	}
	if d3.counts != c1.engineView() {
		res.problem("depth 3 ends at %+v, depth 1 at %+v", d3.counts, c1.engineView())
	}
	res.say("three-depth digest: http %x, service %x, engine %x", c1.Digest, d2.counts.Digest, d3.counts.Digest)

	ops := m.rounds * len(script)
	mt := res.metrics
	zeroLayers(res)
	d1op, d2op, d3op := us(d1.opTime, ops), us(d2.opTime, d2.ops), us(d3.opTime, d3.ops)
	mt["http.batch_us"] = d1.req["batch"].mean()
	mt["http.advance_us"] = d1.req["advance"].mean()
	mt["http.stats_us"] = d1.req["stats"].mean()
	mt["http.self_us"] = d1op - d2op
	mt["http.allocs_per_op"] = ratio(float64(d1.counters.allocs), float64(ops)) - ratio(float64(d2.counters.allocs), float64(d2.ops))
	mt["http.req_bytes_per_op"] = ratio(float64(d1.sent), float64(ops))
	mt["http.resp_bytes_per_op"] = ratio(float64(d1.receive), float64(ops))
	mt["http.conns_opened"] = ratio(float64(d1.dials), float64(d1.rounds))
	mt["http.op_p99_ms"] = d1.lat.quantile(0.99)
	mt["service.submit_us"] = d2.call["submit"].mean()
	mt["service.advance_us"] = d2.call["advance"].mean()
	mt["service.stats_us"] = d2.call["stats"].mean()
	mt["service.self_us"] = d2op - d3op
	mt["service.allocs_per_op"] = ratio(float64(d2.counters.allocs), float64(d2.ops)) - ratio(float64(d3.counters.allocs), float64(d3.ops))
	mt["service.quota_dropped_ratio"] = ratio(float64(c1.QuotaDropped), float64(c1.Offered))
	mt["dynamic.step_ns"] = ratio(d3.call["advance"].sum()*1e3, float64(d3.steps))
	mt["dynamic.submit_ns_per_pkt"] = ratio(d3.call["submit"].sum()*1e3, float64(d3.submitted))
	mt["dynamic.allocs_per_step"] = ratio(float64(d3.counters.allocs), float64(d3.steps))
	mt["dynamic.steps"] = float64(d3.counts.Steps)
	mt["dynamic.live_mean"] = ratio(d3.liveSum, float64(d3.liveN))
	mt["dynamic.queue_depth_max"] = float64(d3.queueMax)
	mt["dynamic.deflections_per_delivered"] = ratio(float64(d3.result.Deflections), float64(d3.result.Delivered))
	mt["dynamic.retries_per_admitted"] = ratio(float64(d3.result.Retried), float64(d3.result.Admitted))
	mt["dynamic.new_engine_ms"] = d3.newEngine.median()
	mt["faults.evals_per_step"] = ratio(float64(d3.evals), float64(d3.counts.Steps))
	mt["faults.down_ratio"] = ratio(float64(d3.downs), float64(d3.evals))
	mt["faults.eval_ns"] = d3.evalNs
	mt["persist.encode_ms"] = d1.stages["encode"].median()
	mt["persist.decode_ms"] = d1.stages["decode"].median()
	mt["persist.snapshot_kb"] = d1.stages["kb"].median()
	mt["service.snapshot_ms"] = d1.stages["snapshot"].median()
	mt["service.restore_ms"] = d1.stages["restore"].median()
	mt["gc.cycles_per_kop"] = ratio(float64(d1.counters.gcs)*1000, float64(ops))
	mt["gc.pause_ms"] = ratio(float64(d1.counters.pauseNs)/1e6*1000, float64(ops))
	untraced := us(m.opTime, ops)
	mt["trace.overhead_pct"] = ratio(d1op-untraced, untraced) * 100
	res.say("tracing overhead: %.2f%% (traced depth-1 op %.2f us vs untraced %.2f us)", mt["trace.overhead_pct"], d1op, untraced)
	res.say("op time per depth: http %.2f us, service %.2f us, engine %.2f us", d1op, d2op, d3op)
	res.say("http.op_p99_ms over %s", d1.lat.stamp())
	return writeSpans(tr, o, res)
}

func writeSpans(tr *tracer, o options, res *result) error {
	path, err := tr.write(o.workDir, fmt.Sprintf("spans-%s-seed%d.csv", o.workload, o.seed))
	if err != nil {
		return err
	}
	res.say("spans: %d written to %s (%d dropped over the buffer cap)", len(tr.spans), path, tr.dropped)
	return nil
}

// runGrid runs the campaign grid (Workers = nproc), then its checks.
func runGrid(o options) (*result, error) {
	trials := gridTrials
	if o.trials > 0 {
		trials = o.trials
	}
	workers := runtime.NumCPU()
	res := &result{metrics: map[string]float64{}}
	budget := o.budget()
	if o.trace {
		budget /= 2
	}
	m, err := runGridPass(o.seed, trials, workers, o.workDir, budget, o.rounds, nil)
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()
	res.attempted, res.failed = m.attempted, m.failed
	res.problems = append(res.problems, m.problems...)
	if m.doc == nil {
		return nil, fmt.Errorf("campaign-grid: no round completed its grid: %v", m.problems)
	}
	sum := gridSummary(m.doc)
	res.say("sim: %s", mustJSON(sum))
	res.say("replicate cell hashes: %x", m.docHash[:min(m.rounds, gridReplicates)])
	res.say("drop_rate=%.6g (packets not absorbed over expected; deterministic per seed)", ratio(float64(sum.Expected-sum.Absorbed), float64(sum.Expected)))
	res.say("rounds=%d of %d cells × %d trials over %d replicates, workers=%d; set-ups=%d; resume cycles=%d",
		m.rounds, gridCells, trials, min(m.rounds, gridReplicates), workers, m.setup.n(), m.restart.n())
	lat := m.latency()
	res.say("cell latency over (replicate, cell) medians: %s", lat.stamp())
	res.say("grid wall time: %.4g s per round; latency and delivered_pps take each cell at its median time over its replicate's rounds", m.wall.Seconds()/float64(m.rounds))
	if m.rounds%gridReplicates != 0 {
		res.say("warning: %d rounds is not a whole multiple of %d replicates, so they weigh unequally", m.rounds, gridReplicates)
	}
	checkGridSeeds(replicateSeed(o.seed, 0), trials, m.doc, res)

	if !o.trace {
		res.metrics["setup_s"] = m.setup.median()
		res.metrics["delivered_pps"] = m.deliveredPPS(workers)
		res.metrics["op_p50_ms"] = lat.quantile(0.5)
		res.metrics["op_p90_ms"] = lat.quantile(0.9)
		res.metrics["restart_s"] = m.restart.median()
		res.metrics["peak_rss_mb"] = peak
		return res, nil
	}

	tr := newTracer()
	t, err := runGridPass(o.seed, trials, workers, o.workDir, 0, m.rounds, tr)
	if err != nil {
		return nil, err
	}
	res.attempted += t.attempted
	res.failed += t.failed
	res.problems = append(res.problems, t.problems...)
	zeroLayers(res)
	mt := res.metrics
	var frame, baseline, faulted, clean sample
	var busy time.Duration
	steps := 0.0
	for _, r := range t.runs {
		ms := float64(r.dur.Nanoseconds()) / 1e6
		if r.cell.Router == "frame" {
			frame.add(ms)
		} else {
			baseline.add(ms)
		}
		if r.cell.Fault != "" {
			faulted.add(ms)
		} else {
			clean.add(ms)
		}
		busy += r.dur
		steps += r.cell.StepsMean * float64(r.cell.Succeeded)
	}
	mt["campaign.frame_cell_ms"] = frame.mean()
	mt["campaign.baseline_cell_ms"] = baseline.mean()
	mt["campaign.faulted_cell_ms"] = faulted.mean()
	mt["campaign.clean_cell_ms"] = clean.mean()
	mt["campaign.ns_per_sim_step"] = ratio(float64(busy.Nanoseconds()), steps)
	mt["campaign.worker_busy_ratio"] = ratio(float64(busy), float64(workers)*float64(t.wall))
	mt["campaign.deflects_per_packet"] = sum.DeflectsPerPacket
	mt["stats.bootstrap_ms"] = bootstrapMs(t.doc.Cells, o.seed)
	mt["persist.encode_ms"] = t.stages["encode"].median()
	mt["persist.decode_ms"] = t.stages["decode"].median()
	mt["persist.snapshot_kb"] = t.stages["kb"].median()
	mt["gc.cycles_per_kop"] = ratio(float64(t.counters.gcs)*1000, float64(t.cellsDone))
	mt["gc.pause_ms"] = ratio(float64(t.counters.pauseNs)/1e6*1000, float64(t.cellsDone))
	untraced := ratio(float64(m.wall), float64(m.rounds))
	traced := ratio(float64(t.wall), float64(t.rounds))
	mt["trace.overhead_pct"] = ratio(traced-untraced, untraced) * 100
	res.say("tracing overhead: %.2f%% (traced grid %.3f s vs untraced %.3f s)", mt["trace.overhead_pct"], traced/1e9, untraced/1e9)
	return res, writeSpans(tr, o, res)
}

// gridTotals summarizes a grid document for the determinism line.
type gridTotals struct {
	Cells             int     `json:"cells"`
	Succeeded         int     `json:"succeeded"`
	Trials            int     `json:"trials"`
	Absorbed          int     `json:"absorbed"`
	Expected          int     `json:"expected"`
	SimSteps          float64 `json:"sim_steps"`
	DeflectsPerPacket float64 `json:"deflects_per_packet"`
	CellsHash         string  `json:"cells_hash"`
}

func gridSummary(doc *campaign.Document) gridTotals {
	s := gridTotals{Cells: len(doc.Cells)}
	deflects := 0.0
	for _, c := range doc.Cells {
		s.Succeeded += c.Succeeded
		s.Trials += c.Trials
		s.Absorbed += c.Absorbed
		s.Expected += c.Expected
		s.SimSteps += c.StepsMean * float64(c.Succeeded)
		deflects += c.DeflectsPerPacket * float64(c.Expected)
	}
	s.DeflectsPerPacket = ratio(deflects, float64(s.Expected))
	if h, err := cellsHash(doc.Cells); err == nil {
		s.CellsHash = fmt.Sprintf("%016x", h)
	}
	return s
}

// checkGridSeeds re-executes the first cell of each topology with the
// same seed (it must reproduce the grid's summary) and with the next
// seed (the summaries must change).
func checkGridSeeds(seed int64, trials int, doc *campaign.Document, res *result) {
	byKey := map[string]string{}
	for _, c := range doc.Cells {
		byKey[c.Key] = mustJSON(c)
	}
	same, next := gridSpec(seed, trials), gridSpec(seed+1, trials)
	cells, err := same.Cells()
	if err != nil {
		res.problem("grid cells: %v", err)
		return
	}
	seen := map[string]bool{}
	changed := false
	for _, c := range cells {
		if seen[c.Topo] {
			continue
		}
		seen[c.Topo] = true
		a, err := campaign.ExecuteCell(same, c)
		if err != nil {
			res.problem("re-execute %s: %v", c.Key(), err)
			continue
		}
		if mustJSON(a) != byKey[c.Key()] {
			res.problem("determinism: cell %s re-executed differs from the grid's summary", c.Key())
		}
		b, err := campaign.ExecuteCell(next, c)
		if err != nil {
			res.problem("execute %s at seed %d: %v", c.Key(), seed+1, err)
			continue
		}
		if mustJSON(b) != byKey[c.Key()] {
			changed = true
		}
	}
	if !changed {
		res.problem("determinism: seed %d and seed %d give identical cell summaries", seed, seed+1)
	}
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Plain data with finite floats only.
		panic(err)
	}
	return string(data)
}
