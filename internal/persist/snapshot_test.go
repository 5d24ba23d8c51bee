package persist

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// validEngineState is a minimal self-consistent frozen engine: one
// in-flight packet, one closed window, a retry entry, a pending batch
// entry and a tenant ledger — every list populated so mutation tests
// have something to corrupt.
func validEngineState() EngineState {
	return EngineState{
		Version: EngineStateVersion,
		Kind:    EngineStateKind,
		Lambda:  0.3, Steps: 100, Warmup: 10, Seed: 7, MaxInFlight: 64, Window: 25,
		Retry: RetryPolicyState{MaxAttempts: 3, BaseDelay: 1, MaxDelay: 8},
		Step:  40, RNG: 0xdeadbeef, NextID: 12,
		Offered: 13, Admitted: 10, Delivered: 9, Retried: 2, Dropped: 1,
		FaultBlocked: 3, FaultStalls: 1, Deflections: 5, PeakInFlight: 4,
		InFlightSum: 30, InFlightSamples: 30,
		LatCount: 3, LatSum: 14, LatSamples: []float64{3, 4, 7}, LatRNG: 0x9a,
		Windows: []WindowState{{Start: 0, Delivered: 5, MeanLatency: 4.2, MeanInFlight: 1.5, Availability: 1}},
		WStart:  25, WSpan: 15, WDelivered: 4, WLatSum: 16, WFlySum: 20, WAvailSum: 15,
		Digest:      0x1234,
		Packets:     []PacketState{{ID: 11, Tenant: "gold", Cur: 2, Dst: 5, Path: []int32{3, 4}, ArrivalEdge: 1, ArrivalDir: 0, Inject: 38}},
		RetryQ:      []RetryState{{Tenant: "gold", Src: 0, Dst: 5, Path: []int32{0, 3}, Attempts: 2, Next: 42}},
		Pending:     []PendingState{{Tenant: "free", Random: true, Src: -1, Dst: -1}},
		PrevForward: []int32{2, 7},
		Tenants: map[string]TenantTotals{
			"gold": {Submitted: 7, Admitted: 5, Retried: 2, Dropped: 1, Delivered: 4},
			"free": {Submitted: 1},
		},
	}
}

func TestEngineStateValidate(t *testing.T) {
	good := validEngineState()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}

	cases := map[string]func(*EngineState){
		"version":          func(s *EngineState) { s.Version = 0 },
		"kind":             func(s *EngineState) { s.Kind = "campaign-checkpoint" },
		"lambda high":      func(s *EngineState) { s.Lambda = 1.5 },
		"lambda negative":  func(s *EngineState) { s.Lambda = -0.1 },
		"negative step":    func(s *EngineState) { s.Step = -1 },
		"negative counter": func(s *EngineState) { s.FaultStalls = -1 },
		"admitted > offered": func(s *EngineState) {
			s.Admitted = s.Offered + 1
			s.Packets = append(s.Packets, PacketState{ID: 1, Cur: 0, Dst: 5, Path: []int32{0}}, PacketState{ID: 2, Cur: 0, Dst: 5, Path: []int32{0}})
		},
		"delivered > admitted": func(s *EngineState) {
			s.Delivered = s.Admitted + 1
		},
		"packet count":        func(s *EngineState) { s.Packets = nil },
		"nan latency":         func(s *EngineState) { s.LatSamples[0] = math.NaN() },
		"negative latency":    func(s *EngineState) { s.LatSamples[0] = -2 },
		"lat count < samples": func(s *EngineState) { s.LatCount = 1 },
		"lat samples over cap": func(s *EngineState) {
			s.LatSamples = make([]float64, MaxLatSamples+1)
			for i := range s.LatSamples {
				s.LatSamples[i] = 1
			}
			s.LatCount, s.LatSum = len(s.LatSamples), float64(len(s.LatSamples))
		},
		"step past bound":       func(s *EngineState) { s.Step = math.MaxInt64 - 1 },
		"next_id past bound":    func(s *EngineState) { s.NextID = MaxEngineCounter + 1 },
		"nan lat sum":           func(s *EngineState) { s.LatSum = math.NaN() },
		"inf window":            func(s *EngineState) { s.Windows[0].MeanLatency = math.Inf(1) },
		"nan accumulator":       func(s *EngineState) { s.WLatSum = math.NaN() },
		"packet id >= nextid":   func(s *EngineState) { s.Packets[0].ID = s.NextID },
		"packet empty path":     func(s *EngineState) { s.Packets[0].Path = nil },
		"packet bad dir":        func(s *EngineState) { s.Packets[0].ArrivalDir = 2 },
		"prev_forward dup":      func(s *EngineState) { s.PrevForward = []int32{2, 2} },
		"prev_forward neg":      func(s *EngineState) { s.PrevForward = []int32{-1} },
		"retry attempts":        func(s *EngineState) { s.RetryQ[0].Attempts = 0 },
		"retry empty path":      func(s *EngineState) { s.RetryQ[0].Path = nil },
		"retry due past bound":  func(s *EngineState) { s.RetryQ[0].Next = s.Step + MaxRetryDelay + 1 },
		"retry due negative":    func(s *EngineState) { s.RetryQ[0].Next = -1 },
		"queued past offered":   func(s *EngineState) { s.Offered-- },
		"inject after step":     func(s *EngineState) { s.Packets[0].Inject = s.Step + 1 },
		"inject negative":       func(s *EngineState) { s.Packets[0].Inject = -1 },
		"tenant without ledger": func(s *EngineState) { delete(s.Tenants, "free") },
		"tenant queued past submitted": func(s *EngineState) {
			s.Tenants["gold"] = TenantTotals{Submitted: 6, Admitted: 5, Dropped: 1, Delivered: 4}
		},
		"tenant in flight past admitted": func(s *EngineState) {
			s.Tenants["gold"] = TenantTotals{Submitted: 7, Admitted: 5, Dropped: 1, Delivered: 5}
		},
		"pending random+src": func(s *EngineState) { s.Pending[0].Src = 3 },
		"tenant negative":    func(s *EngineState) { s.Tenants["gold"] = TenantTotals{Dropped: -1} },
		"tenant admitted > submitted": func(s *EngineState) {
			s.Tenants["gold"] = TenantTotals{Submitted: 1, Admitted: 2, Delivered: 1}
		},
	}
	for name, corrupt := range cases {
		st := validEngineState()
		corrupt(&st)
		if err := st.Validate(); err == nil {
			t.Errorf("%s: corrupted engine state accepted", name)
		}
	}
}

func TestServiceSnapshotRoundTrip(t *testing.T) {
	snap := &ServiceSnapshot{
		Version: ServiceSnapshotVersion,
		Kind:    ServiceSnapshotKind,
		Topologies: []TopologyState{{
			Name:      "bfly",
			FaultSpec: "flap:period=40,down=6,rate=0.3",
			FaultSeed: 11,
			Engine:    validEngineState(),
			Tenants: []TenantQuotaState{
				{Name: "free", Rate: 1, Burst: 4, Tokens: 2.5, Offered: 9, QuotaDropped: 3},
				{Name: "gold", Rate: 10, Burst: 50, Tokens: 49, Offered: 6},
			},
		}},
	}
	var buf bytes.Buffer
	if err := WriteServiceSnapshot(&buf, snap); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Error("snapshot file does not end in newline")
	}
	got, err := ReadServiceSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(got.Topologies) != 1 || got.Topologies[0].Name != "bfly" {
		t.Fatalf("round trip lost topology: %+v", got)
	}
	tp := got.Topologies[0]
	if tp.Engine.Digest != 0x1234 || tp.Engine.RNG != 0xdeadbeef {
		t.Errorf("engine scalars mutated in round trip: %+v", tp.Engine)
	}
	if len(tp.Tenants) != 2 || tp.Tenants[0].Tokens != 2.5 {
		t.Errorf("tenant quota state mutated: %+v", tp.Tenants)
	}

	// Write refuses an invalid snapshot outright.
	bad := *snap
	bad.Topologies = append([]TopologyState{}, snap.Topologies...)
	bad.Topologies = append(bad.Topologies, snap.Topologies[0]) // duplicate name
	if err := WriteServiceSnapshot(&buf, &bad); err == nil {
		t.Error("duplicate topology name written without error")
	}
}

func TestServiceSnapshotValidate(t *testing.T) {
	mk := func() ServiceSnapshot {
		return ServiceSnapshot{
			Version: ServiceSnapshotVersion,
			Kind:    ServiceSnapshotKind,
			Topologies: []TopologyState{{
				Name:   "t0",
				Engine: validEngineState(),
				Tenants: []TenantQuotaState{
					{Name: "a", Rate: 1, Burst: 2, Tokens: 1},
				},
			}},
		}
	}
	if s := mk(); s.Validate() != nil {
		t.Fatalf("valid snapshot rejected: %v", s.Validate())
	}
	cases := map[string]func(*ServiceSnapshot){
		"version":          func(s *ServiceSnapshot) { s.Version = 9 },
		"kind":             func(s *ServiceSnapshot) { s.Kind = "engine-state" },
		"unnamed topology": func(s *ServiceSnapshot) { s.Topologies[0].Name = "" },
		"bad engine":       func(s *ServiceSnapshot) { s.Topologies[0].Engine.Kind = "nope" },
		"unnamed tenant":   func(s *ServiceSnapshot) { s.Topologies[0].Tenants[0].Name = "" },
		"dup tenant": func(s *ServiceSnapshot) {
			s.Topologies[0].Tenants = append(s.Topologies[0].Tenants, s.Topologies[0].Tenants[0])
		},
		"negative rate": func(s *ServiceSnapshot) { s.Topologies[0].Tenants[0].Rate = -1 },
		"nan tokens":    func(s *ServiceSnapshot) { s.Topologies[0].Tenants[0].Tokens = math.NaN() },
		"neg offered":   func(s *ServiceSnapshot) { s.Topologies[0].Tenants[0].Offered = -1 },
	}
	for name, corrupt := range cases {
		s := mk()
		corrupt(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: corrupted service snapshot accepted", name)
		}
	}

	// Garbage bytes are rejected at decode, truncated JSON too.
	if _, err := ReadServiceSnapshot(strings.NewReader("{not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadServiceSnapshot(strings.NewReader(`{"version":1,"kind":"service-snapshot","topologies":[{"name":""}]}`)); err == nil {
		t.Error("invalid decoded snapshot accepted")
	}
}
