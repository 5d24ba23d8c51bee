// Command openload runs the open-system (continuous-arrival) simulator
// and prints either a λ-sweep summary or a single-rate time series as
// CSV — the raw data behind experiment E15.
//
// Usage:
//
//	openload -sweep 0.01,0.05,0.1,0.3          # one row per rate
//	openload -lambda 0.1 -window 200           # CSV time series
//	openload -lambda 0.1 -steps 10000000 -http :8090   # live soak
//	openload -lambda 0.1 -faults "flap:period=200,down=20,rate=0.3" -retry 6
//
// With -http the process serves expvar under /debug/vars (an
// "openload" map updated at every closed window) and the pprof
// handlers under /debug/pprof/; the simulation goroutine carries
// pprof labels (cmd=openload, lambda=...), so its samples are
// attributable in profiles taken from the endpoint. The server uses a
// ReadHeaderTimeout (no slowloris hangs) and drains gracefully:
// SIGINT/SIGTERM stops the simulation at the next step, flushes the
// final partial window through the expvar map and the CSV output, and
// shuts the listener down before exit.
//
// With -faults the run degrades under the given campaign (spec syntax
// in docs/FAULTS.md); -retry N turns blocked arrivals into bounded
// exponential-backoff retries instead of immediate losses.
//
// With -serve the process becomes routing-as-a-service (docs/SERVICE.md):
// the topology is served over the internal/service HTTP API, tenants
// from -tenants submit packet batches under token-bucket quotas, and
// /debug/vars carries per-tenant ledgers under the "service" var.
// SIGINT/SIGTERM drains gracefully — the in-flight state is frozen to
// -snapshot (taken BEFORE the final window flush, so a process
// restarted with -restore resumes the exact trajectory, trace digest
// and all), the final partial window is flushed, and the listener shuts
// down bounded.
//
//	openload -serve -http :8090 -lambda 0 -window 200 \
//	    -tenants 'gold:rate=200,burst=400;free:rate=20,burst=40' \
//	    -snapshot /tmp/svc.json
//	openload -serve -http :8090 -restore /tmp/svc.json   # resume
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hotpotato"
	"hotpotato/internal/dynamic"
	"hotpotato/internal/faults"
)

func main() {
	var (
		topoStr   = flag.String("topo", "butterfly", "topology: butterfly|random")
		size      = flag.Int("size", 5, "butterfly dimension")
		depth     = flag.Int("depth", 24, "depth for -topo random")
		steps     = flag.Int("steps", 5000, "simulated horizon")
		lambda    = flag.Float64("lambda", 0.1, "per-node per-step arrival rate (single-rate mode)")
		sweep     = flag.String("sweep", "", "comma-separated rates; prints a summary row per rate")
		window    = flag.Int("window", 0, "emit a CSV time series with this window size (single-rate mode)")
		seed      = flag.Int64("seed", 1, "random seed")
		faultSpec = flag.String("faults", "", "fault campaign spec, e.g. 'flap:period=200,down=20,rate=0.3' (see docs/FAULTS.md)")
		retryMax  = flag.Int("retry", 0, "max admission attempts per arrival (0 = no retry, shed blocked arrivals)")
		retryBase = flag.Int("retry-base", 1, "backoff before the first retry, in steps")
		retryCap  = flag.Int("retry-cap", 64, "backoff ceiling, in steps")
		httpAddr  = flag.String("http", "", "serve live expvar (/debug/vars) and pprof (/debug/pprof/) on this address during a single-rate run")

		serve       = flag.Bool("serve", false, "routing-as-a-service mode: serve the topology over the HTTP packet API (requires -http)")
		tenantSpec  = flag.String("tenants", "gold:rate=200,burst=400;free:rate=20,burst=40", "serve mode tenant quota table, 'name:rate=R,burst=B;...' (bare name = unlimited)")
		snapPath    = flag.String("snapshot", "", "serve mode: freeze the service to this file on SIGTERM (before the final window flush)")
		restorePath = flag.String("restore", "", "serve mode: resume from this snapshot file instead of starting fresh")
		autoStep    = flag.Bool("autostep", true, "serve mode: step engines continuously; false = deterministic manual stepping via the /advance endpoint")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	var (
		net *hotpotato.Network
		err error
	)
	switch *topoStr {
	case "butterfly":
		net, err = hotpotato.Butterfly(*size)
	case "random":
		net, err = hotpotato.RandomLeveled(rng, *depth, 3, 6, 0.4)
	default:
		err = fmt.Errorf("unknown topology %q", *topoStr)
	}
	fatal(err)

	campaign, err := faults.Parse(*faultSpec)
	fatal(err)
	var model hotpotato.FaultModel
	if campaign != nil {
		model = campaign.Model(net, *seed)
		fmt.Fprintf(os.Stderr, "openload: fault campaign %s\n", campaign.Name())
	}
	retry := dynamic.RetryPolicy{MaxAttempts: *retryMax, BaseDelay: *retryBase, MaxDelay: *retryCap}

	if *serve || *restorePath != "" {
		win := *window
		if win <= 0 {
			win = 200
		}
		runServe(serveConfig{
			addr: *httpAddr, topoName: *topoStr, net: net,
			engine: dynamic.Config{
				Lambda: *lambda, Steps: 0, Seed: *seed, Window: win, Retry: retry,
			},
			faultSpec: *faultSpec, faultSeed: *seed,
			tenantSpec: *tenantSpec, autoStep: *autoStep,
			snapPath: *snapPath, restorePath: *restorePath,
		})
		return
	}

	if *sweep != "" {
		fmt.Println("lambda,offered,admitted,admit_rate,delivered_per_step,lat_p50,lat_p99,avg_inflight,fault_blocked,fault_stalls,retried,dropped")
		for _, s := range strings.Split(*sweep, ",") {
			rate, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			fatal(err)
			res, err := dynamic.Run(net, dynamic.Config{
				Lambda: rate, Steps: *steps, Warmup: *steps / 10, Seed: *seed,
				Faults: model, Retry: retry,
			})
			fatal(err)
			fmt.Printf("%g,%d,%d,%.4f,%.4f,%.0f,%.0f,%.1f,%d,%d,%d,%d\n",
				rate, res.Offered, res.Admitted, res.AdmissionRate(),
				res.Throughput(), res.Latency.Median, res.Latency.P99, res.AvgInFlight,
				res.FaultBlocked, res.FaultStalls, res.Retried, res.Dropped)
		}
		return
	}

	win := *window
	if win <= 0 {
		win = *steps / 20
		if win < 1 {
			win = 1
		}
	}

	// SIGINT/SIGTERM drains the run: the simulation stops at the next
	// step, flushes its final partial window, and the report below
	// still prints.
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()

	cfg := dynamic.Config{
		Lambda: *lambda, Steps: *steps, Warmup: *steps / 10, Seed: *seed, Window: win,
		Faults: model, Retry: retry, Stop: ctx.Done(),
	}
	var server *http.Server
	if *httpAddr != "" {
		cfg.OnWindow = liveVars()
		server = newHTTPServer(*httpAddr, http.DefaultServeMux)
		go func() {
			if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "openload: http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "openload: serving /debug/vars and /debug/pprof/ on %s\n", *httpAddr)
	}
	var res *dynamic.Result
	labels := pprof.Labels("cmd", "openload", "lambda", fmt.Sprintf("%g", *lambda))
	pprof.Do(context.Background(), labels, func(context.Context) {
		var err error
		res, err = dynamic.Run(net, cfg)
		fatal(err)
	})
	if res.Interrupted {
		fmt.Fprintf(os.Stderr, "openload: interrupted after %d steps; final window flushed\n", res.ExecutedSteps)
	}
	if server != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		if err := server.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "openload: shutdown:", err)
		}
		cancel()
	}
	fmt.Fprintln(os.Stderr, res)
	fmt.Println("window_start,delivered,mean_latency,mean_inflight,fault_blocked,fault_stalls,dropped,availability")
	for _, w := range res.Windows {
		fmt.Printf("%d,%d,%.2f,%.2f,%d,%d,%d,%.4f\n",
			w.Start, w.Delivered, w.MeanLatency, w.MeanInFlight,
			w.FaultBlocked, w.FaultStalls, w.Dropped, w.Availability)
	}
}

// liveVars publishes an "openload" expvar map and returns the
// dynamic.Config.OnWindow callback that refreshes it as each window
// closes. Gauges (window_*) describe the last closed window; the rest
// are cumulative over the run so far.
func liveVars() func(dynamic.WindowStats, *dynamic.Result) {
	m := expvar.NewMap("openload")
	var (
		winStart, winDelivered       expvar.Int
		winLatency, winInFlight      expvar.Float
		winAvailability              expvar.Float
		offered, admitted, delivered expvar.Int
		deflections, peak            expvar.Int
		faultBlocked, faultStalls    expvar.Int
		retried, dropped             expvar.Int
	)
	m.Set("window_start", &winStart)
	m.Set("window_delivered", &winDelivered)
	m.Set("window_mean_latency", &winLatency)
	m.Set("window_mean_inflight", &winInFlight)
	m.Set("window_availability", &winAvailability)
	m.Set("offered", &offered)
	m.Set("admitted", &admitted)
	m.Set("delivered", &delivered)
	m.Set("deflections", &deflections)
	m.Set("peak_inflight", &peak)
	m.Set("fault_blocked", &faultBlocked)
	m.Set("fault_stalls", &faultStalls)
	m.Set("retried", &retried)
	m.Set("dropped", &dropped)
	return func(w dynamic.WindowStats, r *dynamic.Result) {
		winStart.Set(int64(w.Start))
		winDelivered.Set(int64(w.Delivered))
		winLatency.Set(w.MeanLatency)
		winInFlight.Set(w.MeanInFlight)
		winAvailability.Set(w.Availability)
		offered.Set(int64(r.Offered))
		admitted.Set(int64(r.Admitted))
		delivered.Set(int64(r.Delivered))
		deflections.Set(int64(r.Deflections))
		peak.Set(int64(r.PeakInFlight))
		faultBlocked.Set(int64(r.FaultBlocked))
		faultStalls.Set(int64(r.FaultStalls))
		retried.Set(int64(r.Retried))
		dropped.Set(int64(r.Dropped))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "openload:", err)
		os.Exit(1)
	}
}
