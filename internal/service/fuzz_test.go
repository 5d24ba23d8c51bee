package service

import (
	"strings"
	"testing"

	"hotpotato/internal/persist"
)

// fuzzSeedSnapshot serializes a manual-stepped service holding
// in-flight packets, backed-off retries and pending src/dst, path and
// random entries. With faultSpec set the topology runs under it.
func fuzzSeedSnapshot(f testing.TB, faultSpec string, corrupt func(*persist.ServiceSnapshot)) string {
	cfg := manualCfg(f, "bfly")
	cfg.FaultSpec, cfg.FaultSeed = faultSpec, 3
	s, err := New([]TopologyConfig{cfg}, Options{Now: newFakeClock().now})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	src, dst := int(cfg.Network.Level(0)[0]), int(cfg.Network.Level(cfg.Network.Depth())[0])
	batches := []BatchRequest{
		{Tenant: "gold", Pairs: []Pair{{src, dst}, {src, dst}, {src, dst}}, Random: 6},
		{Tenant: "free", Random: 2},
	}
	for _, req := range batches {
		if _, err := s.SubmitBatch("bfly", req); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := s.Advance("bfly", 2); err != nil {
		f.Fatal(err)
	}
	path := []int{int(cfg.Network.Node(cfg.Network.Level(0)[1]).Up[0])}
	if _, err := s.SubmitBatch("bfly", BatchRequest{Tenant: "gold", Pairs: []Pair{{src, dst}}, Paths: [][]int{path}, Random: 1}); err != nil {
		f.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	if es := &snap.Topologies[0].Engine; len(es.Packets) == 0 || len(es.RetryQ) == 0 || len(es.Pending) < 3 {
		f.Fatalf("seed holds %d packets, %d retries, %d pending; want all three queues", len(es.Packets), len(es.RetryQ), len(es.Pending))
	}
	if corrupt != nil {
		corrupt(snap)
	}
	var buf strings.Builder
	if err := persist.WriteServiceSnapshot(&buf, snap); err != nil {
		f.Fatal(err)
	}
	return buf.String()
}

// FuzzServiceRestoreStep: every snapshot Restore accepts must leave the
// service able to advance, snapshot again (into a snapshot that itself
// restores) and, when nothing keeps feeding or blocking it (lambda 0,
// no fault spec), drain. Draining is checked as progress: until no work
// remains, some packet is delivered or dropped within every window of
// the longest possible retry wait plus a delivery allowance.
//
// Engines within reach of persist.MaxEngineCounter are exempt: they
// refuse to step past the counter bound by contract. So are retry waits
// beyond 4096 steps from the drain leg, which would cost the fuzzer
// seconds per input.
func FuzzServiceRestoreStep(f *testing.F) {
	f.Add(fuzzSeedSnapshot(f, "", nil))
	f.Add(fuzzSeedSnapshot(f, "flap:period=30,down=5,rate=0.25", nil))
	// A path-less pending entry between two nodes of one level: accepted,
	// it would make every Step fail drawing its path.
	f.Add(fuzzSeedSnapshot(f, "", func(s *persist.ServiceSnapshot) {
		es := &s.Topologies[0].Engine
		for i := range es.Pending {
			if p := &es.Pending[i]; !p.Random && len(p.Path) == 0 {
				lvl := s.Topologies[0].Network.Levels
				var same []int32
				for v, l := range lvl {
					if l == 1 {
						same = append(same, int32(v))
					}
				}
				p.Src, p.Dst = same[0], same[1]
				return
			}
		}
	}))

	f.Fuzz(func(t *testing.T, data string) {
		snap, err := persist.ReadServiceSnapshot(strings.NewReader(data))
		if err != nil {
			return
		}
		// Backoffs up to persist.MaxRetryDelay are valid, but draining
		// through them takes millions of steps per input; such inputs
		// skip the drain leg.
		const margin, maxDrainWait = 1 << 40, 1 << 12
		for _, ts := range snap.Topologies {
			if ts.Engine.Step > persist.MaxEngineCounter-margin || ts.Engine.NextID > persist.MaxEngineCounter-margin {
				return
			}
		}
		s, err := Restore(snap, Options{Now: newFakeClock().now})
		if err != nil {
			return
		}
		defer s.Close()
		for _, name := range s.Names() {
			if _, err := s.Advance(name, 3); err != nil {
				t.Fatalf("accepted snapshot cannot advance %q: %v", name, err)
			}
		}
		again, err := s.Snapshot()
		if err != nil {
			t.Fatalf("advanced service cannot snapshot: %v", err)
		}
		s2, err := Restore(again, Options{Now: newFakeClock().now})
		if err != nil {
			t.Fatalf("re-snapshot does not restore: %v", err)
		}
		s2.Close()

		for _, ts := range snap.Topologies {
			es := &ts.Engine
			if es.Lambda > 0 || ts.FaultSpec != "" {
				continue
			}
			wait := es.Retry.MaxDelay
			if wait <= 0 {
				wait = 64
			}
			for _, r := range es.RetryQ {
				wait = max(wait, r.Next-es.Step)
			}
			if wait > maxDrainWait {
				continue
			}
			window := wait + 4096
			done, idle := -1, 0 // idle: steps since the last delivery or drop
			for {
				st, err := s.Stats(ts.Name)
				if err != nil {
					t.Fatal(err)
				}
				if st.Live == 0 && st.QueueDepth == 0 {
					break
				}
				if st.Delivered+st.Dropped != done {
					done, idle = st.Delivered+st.Dropped, 0
				} else if idle > window {
					t.Fatalf("%q made no progress in %d steps: %d live, %d queued", ts.Name, idle, st.Live, st.QueueDepth)
				}
				if _, err := s.Advance(ts.Name, 64); err != nil {
					t.Fatalf("draining %q: %v", ts.Name, err)
				}
				idle += 64
			}
		}
	})
}
