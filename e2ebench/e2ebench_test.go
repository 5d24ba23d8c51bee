package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hotpotato/internal/persist"
	"hotpotato/internal/service"
	"hotpotato/internal/topo"
)

func TestQuantileAndResolvedPercentile(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	if got := s.quantile(0.5); got != 50.5 {
		t.Errorf("median of 1..100 = %g, want 50.5", got)
	}
	if got := s.quantile(0); got != 1 {
		t.Errorf("q0 = %g, want 1", got)
	}
	if got := s.quantile(1); got != 100 {
		t.Errorf("q1 = %g, want 100", got)
	}
	if got := s.quantile(0.9); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 = %g, want 90.1", got)
	}
	var empty sample
	if empty.quantile(0.5) != 0 || empty.median() != 0 || empty.mean() != 0 {
		t.Error("empty sample must read 0")
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 90, 10}, {100, 99, 1}, {1000, 99, 10}, {1000, 99.9, 1}, {10, 50, 5}, {7, 50, 3}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{9, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true}, {999, 90, true}, {1000, 99, true}, {10000, 99.9, true}, {100000, 99.99, true}} {
		got, ok := highestResolved(c.n, 10)
		if got != c.want || ok != c.ok {
			t.Errorf("highestResolved(%d) = %g,%v, want %g,%v", c.n, got, ok, c.want, c.ok)
		}
	}
	if !strings.Contains(s.stamp(), "n=100, highest resolved p90=90.1") {
		t.Errorf("stamp = %q", s.stamp())
	}
}

func TestCellIntervalsFollowFeedOrder(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Two workers: a and b start at 0; b finishes at 5 and its worker
	// takes c; a finishes at 8 and its worker takes d.
	order := []string{"a", "b", "c", "d"}
	done := []completion{{"b", at(5)}, {"a", at(8)}, {"c", at(9)}, {"d", at(20)}}
	ivs, err := cellIntervals(order, done, t0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"a": 8 * time.Millisecond, "b": 5 * time.Millisecond, "c": 4 * time.Millisecond, "d": 12 * time.Millisecond}
	for k, d := range want {
		if ivs[k].dur() != d {
			t.Errorf("cell %s ran %v, want %v", k, ivs[k].dur(), d)
		}
	}
	if _, err := cellIntervals(order, done[:3], t0, 2); err == nil {
		t.Error("a missing completion must be an error")
	}
}

func TestGridTakesEachCellAtItsMedian(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cell := func(replicate int, key string, absorbed int, d time.Duration) cellRun {
		return cellRun{replicate: replicate, cell: persist.CampaignCell{Key: key, Absorbed: absorbed}, dur: d}
	}
	// Replicate 0 ran three rounds, replicate 1 one: each (replicate,
	// cell) weighs once, at its median, however many rounds it had.
	p := &gridPass{runs: []cellRun{
		cell(0, "a", 100, ms(1)), cell(0, "b", 200, ms(10)),
		cell(1, "a", 300, ms(4)), cell(1, "b", 400, ms(20)),
		cell(0, "a", 100, ms(2)), cell(0, "b", 200, ms(30)),
		cell(0, "a", 100, ms(9)), cell(0, "b", 200, ms(12)),
	}}
	lat := p.latency()
	if lat.n() != 4 {
		t.Fatalf("latency holds %d values, want one per (replicate, cell) = 4", lat.n())
	}
	// Medians: (0,a) 2, (0,b) 12, (1,a) 4, (1,b) 20 ms.
	if got := lat.sum(); math.Abs(got-38) > 1e-9 {
		t.Errorf("latency medians sum to %g ms, want 38", got)
	}
	// 1000 packets over 38 ms of cell time shared by two workers.
	if got, want := p.deliveredPPS(2), 1000/0.019; math.Abs(got-want) > 1e-6 {
		t.Errorf("deliveredPPS = %g, want %g", got, want)
	}
}

// quick runs a workload briefly: one round of a short script.
func quick(workload string, seed int64) options {
	return options{workload: workload, seed: seed, seconds: 1, rounds: 1, ops: 500, trials: 2}
}

func TestInjectedHTTPFailureCountsAsError(t *testing.T) {
	o := quick("svc-chatty", 3)
	var batches atomic.Int64
	o.hooks.failRequest = func(r *http.Request) bool {
		return strings.HasSuffix(r.URL.Path, "/batches") && batches.Add(1) == 7
	}
	res, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 {
		t.Errorf("failed = %d, want the one op whose batch got HTTP 500", res.failed)
	}
	if res.attempted < 500 {
		t.Errorf("attempted = %d, want every op counted", res.attempted)
	}
	// The failed batch never reached the service; the replays skip it,
	// so every check still holds.
	if len(res.problems) > 0 {
		t.Errorf("checks failed: %v", res.problems)
	}
}

func TestCorruptSnapshotCountsAsError(t *testing.T) {
	o := quick("svc-bulk", 5)
	o.ops = 200 // two restart cycles
	o.hooks.corrupt = func(n int, data []byte) []byte {
		if n == 0 {
			return data[:len(data)/2]
		}
		return data
	}
	res, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 {
		t.Errorf("failed = %d, want the one restart cycle fed a truncated snapshot", res.failed)
	}
	if len(res.problems) > 0 {
		t.Errorf("checks failed: %v", res.problems)
	}
}

func TestDivergentRestoreFailsTheRun(t *testing.T) {
	o := quick("svc-bulk", 5)
	o.ops = 200
	// A snapshot that decodes and validates but carries another RNG
	// state restores a service on a different trajectory.
	o.hooks.corrupt = func(n int, data []byte) []byte {
		snap, err := persist.ReadServiceSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Error(err)
			return data
		}
		snap.Topologies[0].Engine.RNG ^= 0x5bd1e995
		var buf bytes.Buffer
		if err := persist.WriteServiceSnapshot(&buf, snap); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	res, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if emit(&out, o, res) {
		t.Fatal("a restore that changes the trajectory must fail the run")
	}
	if !strings.Contains(out.String(), "restart continuation") {
		t.Errorf("report does not name the failed check:\n%s", out.String())
	}
}

func TestVirtualClockMakesDropsIdentical(t *testing.T) {
	w := *svcChatty
	w.ops = 400
	script := w.script(11)
	run := func() simCounts {
		p, err := runSvcPass(&w, 11, script, 0, 1, nil, svcHooks{})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.problems) > 0 {
			t.Fatalf("checks failed: %v", p.problems)
		}
		return p.counts[0]
	}
	a, b := run(), run()
	if a.QuotaDropped == 0 || a.EngineDropped == 0 {
		t.Fatalf("svc-chatty must drop at both stages, got %+v", a)
	}
	if a != b || a.dropRate() != b.dropRate() {
		t.Errorf("same seed, different outcomes:\n%+v\n%+v", a, b)
	}
	other, err := runSvcPass(&w, 12, w.script(12), 0, 1, nil, svcHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if other.counts[0] == a {
		t.Error("a different seed must change the simulated outcome")
	}
}

func TestGridDeterminism(t *testing.T) {
	dir := t.TempDir()
	run := func(seed int64) gridTotals {
		p, err := runGridPass(seed, 2, 2, dir, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.problems) > 0 {
			t.Fatalf("checks failed: %v", p.problems)
		}
		return gridSummary(p.doc)
	}
	a, b := run(4), run(4)
	if a.Cells != gridCells || a.Trials != gridCells*2 {
		t.Fatalf("grid summary %+v, want %d cells of 2 trials", a, gridCells)
	}
	if a != b {
		t.Errorf("same seed, different grids:\n%+v\n%+v", a, b)
	}
	if c := run(5); c == a {
		t.Error("a different seed must change the grid")
	}
}

func TestRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := quick(w, 2)
			o.trace = traced
			o.workDir = t.TempDir()
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			var out bytes.Buffer
			ok := emit(&out, o, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w, traced, err)
			}
			if !ok || !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, traced, got.Correct, got.Attempted, got.Failed, out.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(got.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(got.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := got.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s", w, traced, d.name, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, d.name, m.Value)
				}
			}
			if traced && !strings.Contains(out.String(), "three-depth digest") && w != "campaign-grid" {
				t.Errorf("%s: traced report lacks the three-depth digest line", w)
			}
		}
	}
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if i < len(workloads) && b.Workloads[i].Name != workloads[i] {
			t.Errorf("workload %d: %s vs %s", i, b.Workloads[i].Name, workloads[i])
		}
	}
	check := func(kind string, names, units []string, defs []metricDef) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var n, u []string
	setupBound, maxOther := 0.0, 0.0
	for _, m := range b.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	check("end_to_end", n, u, endToEnd)
	if setupBound < maxOther {
		t.Errorf("setup_s bound %g must be the largest (another is %g)", setupBound, maxOther)
	}
	n, u = nil, nil
	for _, m := range b.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", n, u, perLayer)
}

// TestRestoredBucketLosesPreSnapshotRefill pins the program behaviour
// that keeps svc-chatty's restart cycles to restore drills: a restored
// token bucket restarts its refill clock at the restore instant, so
// the refill a tenant earned between its last batch and the snapshot
// is lost and the restored service admits less than the live one. If
// this test starts failing, restore has become exact and svc-chatty
// can switch to takeovers (svcSpec.takeover).
func TestRestoredBucketLosesPreSnapshotRefill(t *testing.T) {
	g, err := topo.Butterfly(3)
	if err != nil {
		t.Fatal(err)
	}
	clk := &vclock{}
	cfg := service.TopologyConfig{Name: topoName, Network: g, Tenants: []service.TenantQuota{{Name: "free", Rate: 500, Burst: 8}}}
	live, err := service.New([]service.TopologyConfig{cfg}, service.Options{Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	batch := service.BatchRequest{Tenant: "free", Random: 8}
	if _, err := live.SubmitBatch(topoName, batch); err != nil { // drains the bucket
		t.Fatal(err)
	}
	clk.set(10 * time.Millisecond) // earns 5 tokens, credited at the next take
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := service.Restore(snap, service.Options{Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	a, err := live.SubmitBatch(topoName, batch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.SubmitBatch(topoName, batch)
	if err != nil {
		t.Fatal(err)
	}
	if a.Admitted != 5 || b.Admitted != 0 {
		t.Errorf("live admitted %d, restored %d; want 5 and 0 while restore drops the pre-snapshot refill", a.Admitted, b.Admitted)
	}
}
