package faultinject

import (
	"testing"
)

func TestParseStringRoundTrip(t *testing.T) {
	cases := []string{
		"panic@1000",
		"stall@0",
		"spin@50000",
		"corrupt@42:GEMM",
		"stall@7:CFD",
		"corrupt-counter.line-reads@1000",
		"corrupt-counter.clamp@5000:GEMM",
	}
	for _, s := range cases {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !p.Enabled() {
			t.Fatalf("Parse(%q) yielded a disabled plan", s)
		}
		if got := p.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseEmptyIsDisabled(t *testing.T) {
	p, err := Parse("")
	if err != nil {
		t.Fatalf("Parse(\"\"): %v", err)
	}
	if p.Enabled() {
		t.Fatal("empty string parsed to an enabled plan")
	}
	if p.String() != "" {
		t.Fatalf("disabled plan renders %q, want empty", p.String())
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"panic",                    // no event count
		"panic@",                   // empty event count
		"panic@x",                  // non-numeric event count
		"explode@100",              // unknown kind
		"stall@100:",               // empty workload filter
		"@100",                     // empty kind
		"panic@-1",                 // negative event count
		"none@0",                   // None is not a spelled kind
		"corrupt-counter@10",       // missing target
		"corrupt-counter.@10",      // empty target
		"corrupt-counter.bogus@10", // unknown target
		"corrupt.line-reads@10",    // target on a non-counter kind
		"panic.line-reads@10",      // target on a non-counter kind
	} {
		if p, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", s, p)
		}
	}
}

func TestMatches(t *testing.T) {
	if (Plan{}).Matches("CFD") {
		t.Error("disabled plan matches")
	}
	any := Plan{Kind: Panic}
	if !any.Matches("CFD") || !any.Matches("GEMM") {
		t.Error("unfiltered plan should match every workload")
	}
	scoped := Plan{Kind: Panic, Workload: "CFD"}
	if !scoped.Matches("CFD") || scoped.Matches("GEMM") {
		t.Error("scoped plan should match only its workload")
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvVar, "spin@123:NW")
	p, err := FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Kind: Spin, AtEvent: 123, Workload: "NW"}
	if p != want {
		t.Fatalf("FromEnv = %+v, want %+v", p, want)
	}
	t.Setenv(EnvVar, "")
	if p, err = FromEnv(); err != nil || p.Enabled() {
		t.Fatalf("empty env: %+v, %v; want disabled plan", p, err)
	}
}

func TestInjectedError(t *testing.T) {
	inj := Injected{Plan: Plan{Kind: Panic, AtEvent: 10}}
	if inj.Error() == "" {
		t.Fatal("Injected.Error is empty")
	}
}

func TestCorruptCounterTargets(t *testing.T) {
	targets := Targets()
	if len(targets) == 0 {
		t.Fatal("no corrupt-counter targets declared")
	}
	for _, tgt := range targets {
		if !ValidTarget(tgt) {
			t.Errorf("ValidTarget(%q) = false for a declared target", tgt)
		}
		s := "corrupt-counter." + tgt + "@77"
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		want := Plan{Kind: CorruptCounter, AtEvent: 77, Target: tgt}
		if p != want {
			t.Errorf("Parse(%q) = %+v, want %+v", s, p, want)
		}
		if got := p.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	for _, tgt := range []string{"", "bogus", "line-reads "} {
		if ValidTarget(tgt) {
			t.Errorf("ValidTarget(%q) = true", tgt)
		}
	}
}

// TestStoreFamilyParseRoundTrip pins the store fault family's plan syntax:
// kind@op[:keyFilter] parses, renders back identically, and is classified
// as a store plan.
func TestStoreFamilyParseRoundTrip(t *testing.T) {
	cases := []struct {
		s    string
		want Plan
	}{
		{"store-torn-write@3", Plan{Kind: StoreTornWrite, AtEvent: 3}},
		{"store-corrupt-blob@0", Plan{Kind: StoreCorruptBlob}},
		{"store-eio@1:Stream", Plan{Kind: StoreEIO, AtEvent: 1, Workload: "Stream"}},
		{"store-slow-io@2:put", Plan{Kind: StoreSlowIO, AtEvent: 2, Workload: "put"}},
	}
	for _, c := range cases {
		p, err := Parse(c.s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.s, err)
		}
		if p != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.s, p, c.want)
		}
		if got := p.String(); got != c.s {
			t.Errorf("round trip %q -> %q", c.s, got)
		}
		if !p.IsStore() {
			t.Errorf("IsStore(%q) = false", c.s)
		}
	}
}

// TestNetFamilyParseRoundTrip pins the net fault family's plan syntax:
// kind@req[#burst][:pathFilter] parses, renders back identically, and is
// classified as a net plan.
func TestNetFamilyParseRoundTrip(t *testing.T) {
	cases := []struct {
		s    string
		want Plan
	}{
		{"net-drop@0", Plan{Kind: NetDrop}},
		{"net-drop@2#3", Plan{Kind: NetDrop, AtEvent: 2, Times: 3}},
		{"net-truncate@1#1:/v1/batches/b", Plan{Kind: NetTruncate, AtEvent: 1, Times: 1, Workload: "/v1/batches/b"}},
		{"net-5xx@4#2", Plan{Kind: Net5xx, AtEvent: 4, Times: 2}},
		{"net-429@0#1", Plan{Kind: Net429, Times: 1}},
		{"net-latency@3:/result", Plan{Kind: NetLatency, AtEvent: 3, Workload: "/result"}},
		{"net-blackhole@0", Plan{Kind: NetBlackhole}},
	}
	for _, c := range cases {
		p, err := Parse(c.s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.s, err)
		}
		if p != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.s, p, c.want)
		}
		if got := p.String(); got != c.s {
			t.Errorf("round trip %q -> %q", c.s, got)
		}
		if !p.IsNet() || p.IsStore() {
			t.Errorf("%q: IsNet=%v IsStore=%v, want net-only", c.s, p.IsNet(), p.IsStore())
		}
	}
	for _, s := range []string{
		"net-drop@0#0",  // zero-length burst
		"net-drop@0#x",  // non-numeric burst
		"panic@0#2",     // burst on an engine kind
		"store-eio@0#2", // burst on a store kind
		"net-explode@0", // unknown net kind
	} {
		if p, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", s, p)
		}
	}
}

// TestNetPlanFiresAt pins the burst window arithmetic: [AtEvent, AtEvent+
// Times) for bounded plans, [AtEvent, inf) for unbounded ones.
func TestNetPlanFiresAt(t *testing.T) {
	burst := Plan{Kind: Net5xx, AtEvent: 2, Times: 3}
	for n, want := range map[uint64]bool{0: false, 1: false, 2: true, 3: true, 4: true, 5: false, 100: false} {
		if got := burst.FiresAt(n); got != want {
			t.Errorf("burst.FiresAt(%d) = %v, want %v", n, got, want)
		}
	}
	forever := Plan{Kind: NetBlackhole, AtEvent: 1}
	for n, want := range map[uint64]bool{0: false, 1: true, 1000: true} {
		if got := forever.FiresAt(n); got != want {
			t.Errorf("forever.FiresAt(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestNetPlansNeverMatchSimulationsOrStore asserts the three fault families
// stay partitioned: a net plan arms neither simulations nor store I/O, and
// its path filter is a substring match.
func TestNetPlansNeverMatchSimulationsOrStore(t *testing.T) {
	netp := Plan{Kind: NetDrop}
	if netp.Matches("Stream") || netp.MatchesStore("key") {
		t.Error("net plan leaked into a simulation or store operation")
	}
	if !netp.MatchesNet("/v1/batches") {
		t.Error("unfiltered net plan did not match a request path")
	}
	filtered := Plan{Kind: NetTruncate, Workload: "/v1/batches/b"}
	if !filtered.MatchesNet("/v1/batches/b000001") {
		t.Error("path filter did not match")
	}
	if filtered.MatchesNet("/v1/jobs/x/result") {
		t.Error("path filter matched a foreign path")
	}
	if (Plan{Kind: Panic}).MatchesNet("/v1/batches") {
		t.Error("engine plan matched a request path")
	}
}

// TestParseList pins the comma-separated multi-plan grammar chaosproxy is
// driven by.
func TestParseList(t *testing.T) {
	plans, err := ParseList("net-drop@0#1, net-5xx@2#2,")
	if err != nil {
		t.Fatal(err)
	}
	want := []Plan{
		{Kind: NetDrop, Times: 1},
		{Kind: Net5xx, AtEvent: 2, Times: 2},
	}
	if len(plans) != len(want) {
		t.Fatalf("ParseList yielded %d plans, want %d", len(plans), len(want))
	}
	for i := range want {
		if plans[i] != want[i] {
			t.Errorf("plan %d = %+v, want %+v", i, plans[i], want[i])
		}
	}
	if plans, err := ParseList(""); err != nil || len(plans) != 0 {
		t.Fatalf("ParseList(\"\") = %v, %v; want empty, nil", plans, err)
	}
	if _, err := ParseList("net-drop@0,bogus@1"); err == nil {
		t.Fatal("ParseList accepted an unknown kind")
	}
}

// TestStorePlansNeverMatchSimulations asserts the partition between the
// two fault families: a store plan must not arm on any simulation run (it
// would perturb cache keys and hand core an unknown fault), and a
// simulation plan must not match store operations.
func TestStorePlansNeverMatchSimulations(t *testing.T) {
	store := Plan{Kind: StoreEIO, AtEvent: 0}
	if store.Matches("Stream") || store.Matches("") {
		t.Error("store plan matched a simulation run")
	}
	if !store.MatchesStore("abc|def|1") {
		t.Error("unfiltered store plan did not match a store key")
	}
	filtered := Plan{Kind: StoreTornWrite, Workload: "Stream"}
	if !filtered.MatchesStore("cfg|Stream-fp|1") {
		t.Error("substring key filter did not match")
	}
	if filtered.MatchesStore("cfg|CoMD-fp|1") {
		t.Error("key filter matched a foreign key")
	}
	sim := Plan{Kind: Panic, AtEvent: 10}
	if sim.MatchesStore("anything") {
		t.Error("simulation plan matched a store operation")
	}
	if !sim.Matches("Stream") {
		t.Error("simulation plan stopped matching runs")
	}
}
