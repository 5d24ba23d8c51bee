// Command loadgen drives a routing service (openload -serve) over its
// HTTP API with heavy-tailed traffic and reports what the service did
// with it.
//
// Batch sizes are Pareto(α, xm) — heavy-tailed by design, because open
// systems look healthy under uniform load and fall over under bursts;
// α ≤ 2 gives infinite variance, the interesting regime. Each batch is
// assigned to a tenant by weighted draw from -mix, so one run exercises
// several quota classes at once (the over-budget tenant's drops and the
// in-budget tenant's clean ledger in the same report).
//
// The report covers both sides of the API: client-observed request
// latency quantiles with bootstrap confidence intervals
// (stats.BootstrapQuantileCI — the CIs make two loadgen runs
// comparable without eyeballing), and the service's own per-tenant
// admission/drop/delivery ledgers read back from /v1/topologies/{name}.
//
//	loadgen -addr http://localhost:8090 -topo butterfly \
//	    -batches 200 -alpha 1.4 -xm 3 -seed 7 \
//	    -mix 'gold=0.7,free=0.3'
//
// Deterministic per -seed on the client side: batch sizes, tenant draws
// and pacing come from one sequential RNG.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hotpotato/internal/service"
	"hotpotato/internal/stats"
)

func main() {
	var (
		addr    = flag.String("addr", "http://localhost:8090", "base URL of the routing service")
		topo    = flag.String("topo", "butterfly", "topology name to target")
		batches = flag.Int("batches", 100, "number of batches to submit")
		alpha   = flag.Float64("alpha", 1.4, "Pareto shape for batch sizes (smaller = heavier tail)")
		xm      = flag.Float64("xm", 2, "Pareto scale: minimum batch size")
		maxB    = flag.Int("max-batch", 512, "cap on a single batch (keeps one tail draw from saturating the engine cap)")
		mix     = flag.String("mix", "gold=0.7,free=0.3", "tenant traffic mix as 'name=weight,...'")
		seed    = flag.Int64("seed", 1, "client RNG seed (sizes, tenant draws, pacing)")
		pace    = flag.Duration("pace", 0, "mean inter-batch gap (0 = as fast as possible; gaps are exponential around the mean)")
		advance = flag.Int("advance", 0, "call /advance with this many steps after each batch (for -autostep=false services)")
		drain   = flag.Duration("drain", 10*time.Second, "after submitting, wait up to this long for the service to drain")
		jsonOut = flag.Bool("json", false, "emit the report as JSON instead of text")
	)
	flag.Parse()

	tenants, weights, err := parseMix(*mix)
	fatal(err)
	if *alpha <= 0 || *xm < 1 {
		fatal(fmt.Errorf("need alpha > 0 and xm >= 1"))
	}
	if *batches < 1 {
		fatal(fmt.Errorf("need -batches >= 1"))
	}

	rng := rand.New(rand.NewSource(*seed))
	client := &http.Client{Timeout: 30 * time.Second}
	base := strings.TrimRight(*addr, "/") + "/v1/topologies/" + *topo

	offered := make(map[string]int)
	admitted := make(map[string]int)
	quotaDropped := make(map[string]int)
	var reqLatencies []float64 // seconds, client-observed

	// The step counter before any load: the report's service-side
	// stepping rate covers only the steps this run drove.
	initial, err := getStats(client, base)
	fatal(err)
	start := time.Now()

	for i := 0; i < *batches; i++ {
		tenant := tenants[weightedDraw(rng, weights)]
		size := paretoSize(rng, *alpha, *xm, *maxB)
		req := service.BatchRequest{Tenant: tenant, Random: size}
		t0 := time.Now()
		res, err := postBatch(client, base+"/batches", req)
		fatal(err)
		reqLatencies = append(reqLatencies, time.Since(t0).Seconds())
		offered[tenant] += res.Offered
		admitted[tenant] += res.Admitted
		quotaDropped[tenant] += res.QuotaDropped
		if *advance > 0 {
			fatal(postAdvance(client, base+"/advance", *advance))
		}
		if *pace > 0 {
			// Exponential gaps: a Poisson batch-arrival process around
			// the requested mean.
			time.Sleep(time.Duration(rng.ExpFloat64() * float64(*pace)))
		}
	}
	submitWall := time.Since(start)

	// Let the service work off the backlog before reading final ledgers.
	var final service.TopologyStats
	deadline := time.Now().Add(*drain)
	for {
		final, err = getStats(client, base)
		fatal(err)
		if final.Live == 0 && final.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "loadgen: drain timeout: %d live, %d queued\n", final.Live, final.QueueDepth)
			break
		}
		if *advance > 0 {
			fatal(postAdvance(client, base+"/advance", *advance))
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	wall := time.Since(start)

	report := buildReport(*topo, *batches, submitWall, wall, reqLatencies, tenants, offered, admitted, quotaDropped, initial, final, *seed)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(report))
		return
	}
	printReport(report)
}

// Report is the machine-readable result of one loadgen run.
type Report struct {
	Topology   string  `json:"topology"`
	Batches    int     `json:"batches"`
	SubmitSecs float64 `json:"submit_secs"`
	WallSecs   float64 `json:"wall_secs"`
	Throughput float64 `json:"delivered_per_sec"`
	// ServiceSteps is the number of engine steps the service executed
	// during this run (final minus initial step counter) and
	// ServiceStepsPerSec that count over the wall clock — the
	// service-side stepping rate, the end-to-end counterpart of the
	// engine's ns/step in the dynamic rows of BENCH_layers.json.
	ServiceSteps       int                   `json:"service_steps"`
	ServiceStepsPerSec float64               `json:"service_steps_per_sec"`
	ReqP50             stats.QuantileCI      `json:"req_latency_p50_secs"`
	ReqP99             stats.QuantileCI      `json:"req_latency_p99_secs"`
	Tenants            []TenantReport        `json:"tenants"`
	Service            service.TopologyStats `json:"service"`
}

// TenantReport is one tenant's client-vs-service reconciliation.
type TenantReport struct {
	Name            string  `json:"name"`
	Offered         int     `json:"offered"`
	Admitted        int     `json:"admitted"`
	QuotaDropped    int     `json:"quota_dropped"`
	AdmissionRate   float64 `json:"admission_rate"`
	ServiceDropRate float64 `json:"service_drop_rate"`
	Delivered       int     `json:"delivered"`
}

func buildReport(topo string, batches int, submitWall, wall time.Duration, lats []float64,
	tenants []string, offered, admitted, quotaDropped map[string]int,
	initial, final service.TopologyStats, seed int64) Report {
	rep := Report{
		Topology: topo, Batches: batches,
		SubmitSecs: submitWall.Seconds(), WallSecs: wall.Seconds(),
	}
	rep.ServiceSteps = final.Step - initial.Step
	if wall > 0 {
		rep.Throughput = float64(final.Delivered) / wall.Seconds()
		rep.ServiceStepsPerSec = float64(rep.ServiceSteps) / wall.Seconds()
	}
	// Bootstrap CIs make the quantiles comparable across runs; the seed
	// derives from the client seed so the report itself is reproducible.
	rep.ReqP50 = stats.BootstrapQuantileCI(lats, 0.5, 1000, uint64(seed)+1, 0.95)
	rep.ReqP99 = stats.BootstrapQuantileCI(lats, 0.99, 1000, uint64(seed)+2, 0.95)
	for _, name := range tenants {
		tr := TenantReport{
			Name: name, Offered: offered[name],
			Admitted: admitted[name], QuotaDropped: quotaDropped[name],
		}
		if tr.Offered > 0 {
			tr.AdmissionRate = float64(tr.Admitted) / float64(tr.Offered)
		}
		if ts, ok := final.Tenants[name]; ok {
			tr.ServiceDropRate = ts.DropRate
			tr.Delivered = ts.Delivered
		}
		rep.Tenants = append(rep.Tenants, tr)
	}
	rep.Service = final
	return rep
}

func printReport(r Report) {
	fmt.Printf("loadgen: %s: %d batches in %.2fs (total wall %.2fs), %.1f delivered/s\n",
		r.Topology, r.Batches, r.SubmitSecs, r.WallSecs, r.Throughput)
	fmt.Printf("request latency p50 %.1fms [%.1f, %.1f]  p99 %.1fms [%.1f, %.1f]  (95%% bootstrap CI)\n",
		1e3*r.ReqP50.Estimate, 1e3*r.ReqP50.Lo, 1e3*r.ReqP50.Hi,
		1e3*r.ReqP99.Estimate, 1e3*r.ReqP99.Lo, 1e3*r.ReqP99.Hi)
	fmt.Println("tenant,offered,admitted,quota_dropped,admission_rate,service_drop_rate,delivered")
	for _, t := range r.Tenants {
		fmt.Printf("%s,%d,%d,%d,%.4f,%.4f,%d\n",
			t.Name, t.Offered, t.Admitted, t.QuotaDropped, t.AdmissionRate, t.ServiceDropRate, t.Delivered)
	}
	fmt.Printf("service totals: offered=%d delivered=%d dropped=%d deflections=%d step=%d (%d steps this run, %.0f steps/s)\n",
		r.Service.Offered, r.Service.Delivered, r.Service.Dropped, r.Service.Deflections, r.Service.Step,
		r.ServiceSteps, r.ServiceStepsPerSec)
}

// paretoSize draws a Pareto(α, xm) batch size, capped.
func paretoSize(rng *rand.Rand, alpha, xm float64, cap int) int {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	n := int(math.Ceil(xm * math.Pow(u, -1/alpha)))
	if n > cap {
		n = cap
	}
	if n < 1 {
		n = 1
	}
	return n
}

// weightedDraw picks an index with probability proportional to weights.
func weightedDraw(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// parseMix parses 'name=weight,...' into parallel name/weight slices
// (names sorted for deterministic draws per seed).
func parseMix(s string) ([]string, []float64, error) {
	byName := make(map[string]float64)
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || name == "" {
			return nil, nil, fmt.Errorf("loadgen: mix entry %q is not name=weight", kv)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return nil, nil, fmt.Errorf("loadgen: mix weight %q invalid", kv)
		}
		if _, dup := byName[name]; dup {
			return nil, nil, fmt.Errorf("loadgen: duplicate tenant %q in mix", name)
		}
		byName[name] = w
	}
	if len(byName) == 0 {
		return nil, nil, fmt.Errorf("loadgen: empty mix")
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	weights := make([]float64, len(names))
	for i, n := range names {
		weights[i] = byName[n]
	}
	return names, weights, nil
}

func postBatch(client *http.Client, url string, req service.BatchRequest) (service.BatchResult, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return service.BatchResult{}, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return service.BatchResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return service.BatchResult{}, fmt.Errorf("loadgen: batch: %s: %s", resp.Status, e.Error)
	}
	var res service.BatchResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	return res, err
}

func postAdvance(client *http.Client, url string, steps int) error {
	body := fmt.Sprintf(`{"steps":%d}`, steps)
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: advance: %s", resp.Status)
	}
	return nil
}

func getStats(client *http.Client, url string) (service.TopologyStats, error) {
	resp, err := client.Get(url)
	if err != nil {
		return service.TopologyStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.TopologyStats{}, fmt.Errorf("loadgen: stats: %s", resp.Status)
	}
	var st service.TopologyStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
