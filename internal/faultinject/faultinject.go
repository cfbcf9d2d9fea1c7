// Package faultinject provides deterministic fault injection for the
// simulator's run lifecycle. A Plan describes one fault — a panic, an
// event-loop livelock, a runaway clock, or a corrupted run budget — armed to
// fire once a run has dispatched a chosen number of events, optionally
// restricted to a single workload. Because the event loop is deterministic,
// a plan fires at exactly the same point of the same run every time, which
// is what lets tests and CI prove that every containment path (panic
// recovery in the runner, each budget kind in core) actually triggers.
//
// Plans are plain values with no behavior of their own: internal/core
// consults the plan from its periodic budget check and performs the fault,
// so this package stays free of simulator dependencies.
// CLIs arm a plan from the MCMGPU_FAULT environment variable (see FromEnv);
// tests construct plans directly.
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// EnvVar is the environment variable the CLIs read to arm a fault plan.
const EnvVar = "MCMGPU_FAULT"

// Kind enumerates the faults a Plan can inject.
type Kind uint8

const (
	// None is the zero value: no fault armed.
	None Kind = iota
	// Panic panics out of the event loop with an Injected value, exercising
	// the runner's recover path.
	Panic
	// Stall schedules a same-cycle self-rescheduling event: the queue never
	// drains and the clock never advances — the classic livelock only an
	// event or wall-clock budget can catch.
	Stall
	// Spin schedules a +1-cycle self-rescheduling event: the queue never
	// drains but the clock runs away, which is what a cycle budget catches.
	Spin
	// CorruptBudget zeroes the run's remaining event budget, forcing the
	// next periodic check to trip as if MaxEvents had been exceeded — even
	// when the configured budget was generous or absent. It proves the
	// budget-trip plumbing end to end without waiting out a real budget.
	CorruptBudget
	// CorruptCounter perturbs one model statistic, chosen by Plan.Target,
	// by the smallest possible amount (one count, one byte). The run
	// otherwise proceeds normally — which is the point: the perturbation is
	// invisible to every lifecycle guard and only the invariant auditor's
	// conservation laws can catch it. Each target is engineered to break
	// exactly one audited invariant, so the corrupt-counter plan family
	// proves check by check that the auditor actually fires.
	CorruptCounter

	// The store fault family targets internal/runstore's durable I/O
	// instead of the event loop. A store plan is counted in store
	// operations rather than engine events: AtEvent is the zero-based
	// sequence number of the first matching store operation the fault
	// applies to (and it keeps applying to every later matching operation),
	// and the filter after ':' restricts the fault to store keys containing
	// that substring. Store plans never match simulation runs (see
	// Matches), so arming one through MCMGPU_FAULT perturbs only the
	// durability layer under an otherwise healthy sweep — which is what
	// lets CI prove each recovery path (quarantine, rebuild, recompute)
	// fires without also corrupting the simulation it recovers.

	// StoreTornWrite makes a store write bypass the atomic
	// temp-file+rename protocol and leave a truncated file at the final
	// path — the on-disk artifact of a crash or power loss mid-write. The
	// write reports success (the corruption is silent, as it would be), so
	// only read-time SHA-256 verification or open-time index rebuild can
	// catch it.
	StoreTornWrite
	// StoreCorruptBlob flips a byte of a blob's content as it is written,
	// modeling bit rot: the file is complete and well-formed but its
	// content no longer matches the checksum it is addressed by.
	StoreCorruptBlob
	// StoreEIO fails a store read or write with an injected I/O error,
	// exercising the degrade-to-compute path: the caller must log and
	// recompute, never fail the job or serve a partial result.
	StoreEIO
	// StoreSlowIO sleeps briefly on matching store operations, modeling a
	// saturated disk; it proves timeouts and progress reporting survive a
	// slow store rather than wedging on it.
	StoreSlowIO

	// The net fault family targets the HTTP path between a sweep client and
	// its mcmserve backends instead of the event loop or the store. Net
	// plans are consumed by internal/chaosproxy, which sits in front of a
	// backend and injects the fault into matching proxied requests. AtEvent
	// is the zero-based sequence number of the first matching request the
	// fault applies to; Times bounds how many consecutive matching requests
	// it applies to (0 = every one from AtEvent on, which is how a
	// permanently black-holed backend is modeled); and the filter after ':'
	// restricts the fault to request paths containing that substring. Net
	// plans never match simulation runs or store operations, so arming one
	// perturbs only the wire — which is what lets tests prove the client's
	// retry, failover, hedging and stream-resume paths each fire without
	// also perturbing the simulations they protect.

	// NetDrop closes the TCP connection before writing any response bytes —
	// the wire artifact of a crashed backend or a broken middlebox. The
	// client sees a transport error (EOF / connection reset) and must retry.
	NetDrop
	// NetTruncate forwards the backend's response but cuts the body short
	// and closes the connection, preserving the original framing so the
	// client observes an unexpected EOF mid-body — a torn NDJSON stream or
	// a half-delivered result JSON. Decode failures must be treated as
	// retryable transport damage, never as a terminal answer.
	NetTruncate
	// Net5xx answers 503 without contacting the backend, modeling an
	// overloaded or crashing reverse proxy; the client's retry loop must
	// absorb bounded bursts.
	Net5xx
	// Net429 answers 429 with a Retry-After header without contacting the
	// backend; the client must honor the header as its backoff floor.
	Net429
	// NetLatency delays matching requests before forwarding them, modeling
	// a congested path or a struggling backend; it is what hedged requests
	// exist to race against.
	NetLatency
	// NetBlackhole accepts the connection and never answers — the failure
	// mode TCP cannot distinguish from "slow" — until the request context
	// ends or the proxy closes. Only client-side timeouts, health probes and
	// circuit breakers can route around it.
	NetBlackhole
)

// Valid corrupt-counter targets. Each names the counter internal/core
// perturbs and, in parentheses, the invariant that must catch it.
const (
	// TargetLineReads over-counts the machine's line-read counter
	// (l1-flow: L1 accesses no longer equal issued line reads).
	TargetLineReads = "line-reads"
	// TargetLineWrites over-counts the machine's line-write counter
	// (l2-flow: L2 write accesses no longer equal issued line writes).
	TargetLineWrites = "line-writes"
	// TargetEnergyLink books one phantom byte on the energy meter's link
	// domain (energy-bytes: meter vs. NoC byte reconciliation).
	TargetEnergyLink = "energy-link"
	// TargetEnergyDRAM books one phantom byte of DRAM energy
	// (energy-bytes: meter vs. DRAM partition byte reconciliation).
	TargetEnergyDRAM = "energy-dram"
	// TargetInFlight leaks one in-flight load context
	// (drain: in-flight operations nonzero at the kernel boundary).
	TargetInFlight = "inflight"
	// TargetClamp starts a self-rescheduling event that schedules itself one
	// cycle in the past, so the clamped-event count grows with the event
	// count (clamp-guard: the ClampedEvents ratio ceiling).
	TargetClamp = "clamp"
	// TargetL2Bank books one phantom unit on partition 0's L2 bank
	// (l2-bank-flow: bank units no longer equal the L2's accesses times the
	// line size).
	TargetL2Bank = "l2-bank"
)

// Targets lists every valid corrupt-counter target.
func Targets() []string {
	return []string{TargetLineReads, TargetLineWrites, TargetEnergyLink,
		TargetEnergyDRAM, TargetInFlight, TargetClamp, TargetL2Bank}
}

// ValidTarget reports whether t names a corrupt-counter target.
func ValidTarget(t string) bool {
	for _, v := range Targets() {
		if t == v {
			return true
		}
	}
	return false
}

// kindNames is every kind's plan-syntax name, indexed by Kind: the one
// table String renders from and Parse reads.
var kindNames = [...]string{
	None:             "none",
	Panic:            "panic",
	Stall:            "stall",
	Spin:             "spin",
	CorruptBudget:    "corrupt",
	CorruptCounter:   "corrupt-counter",
	StoreTornWrite:   "store-torn-write",
	StoreCorruptBlob: "store-corrupt-blob",
	StoreEIO:         "store-eio",
	StoreSlowIO:      "store-slow-io",
	NetDrop:          "net-drop",
	NetTruncate:      "net-truncate",
	Net5xx:           "net-5xx",
	Net429:           "net-429",
	NetLatency:       "net-latency",
	NetBlackhole:     "net-blackhole",
}

// String returns the kind's plan-syntax name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// parseKind maps a plan-syntax name to its kind, None when it names none.
// None itself is not a plan, so "none" does not parse, and the
// corrupt-counter kind matches by prefix because its name carries the
// target.
func parseKind(name string) Kind {
	if strings.HasPrefix(name, kindNames[CorruptCounter]) {
		return CorruptCounter
	}
	for k := None + 1; int(k) < len(kindNames); k++ {
		if kindNames[k] == name {
			return k
		}
	}
	return None
}

// kindList renders the parseable kind names for an error message.
func kindList() string {
	names := make([]string, 0, len(kindNames)-1)
	for k := None + 1; int(k) < len(kindNames); k++ {
		name := kindNames[k]
		if k == CorruptCounter {
			name += ".<target>"
		}
		names = append(names, name)
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " or " + names[last]
}

// Plan is one armed fault. The zero value is disabled.
type Plan struct {
	// Kind selects the fault; None disables the plan.
	Kind Kind
	// AtEvent arms the fault to fire at the first periodic check after the
	// run has dispatched at least this many events. 0 fires at the first
	// check. Store kinds count store operations instead: the fault applies
	// to every matching operation whose zero-based sequence number is >=
	// AtEvent.
	AtEvent uint64
	// Workload, when non-empty, restricts the fault to runs of the workload
	// with this name; other runs are untouched. Store kinds reuse the field
	// as a store-key substring filter (see MatchesStore); net kinds reuse it
	// as a request-path substring filter (see MatchesNet).
	Workload string
	// Target selects which counter a CorruptCounter plan perturbs (one of
	// the Target* constants); empty for every other kind.
	Target string
	// Times bounds how many consecutive matching operations a net plan
	// applies to, starting at AtEvent; 0 means every matching operation from
	// AtEvent on. Only net kinds accept it (syntax "kind@N#M"): engine and
	// store faults fire once or forever by design, and silently carrying an
	// ignored count would make a plan lie about what it does.
	Times uint64
}

// Enabled reports whether the plan injects anything.
func (p Plan) Enabled() bool { return p.Kind != None }

// IsStore reports whether the plan targets the run store's durable I/O
// rather than the simulation event loop.
func (p Plan) IsStore() bool {
	switch p.Kind {
	case StoreTornWrite, StoreCorruptBlob, StoreEIO, StoreSlowIO:
		return true
	}
	return false
}

// IsNet reports whether the plan targets the HTTP path between clients and
// backends rather than the simulation event loop or the store.
func (p Plan) IsNet() bool {
	switch p.Kind {
	case NetDrop, NetTruncate, Net5xx, Net429, NetLatency, NetBlackhole:
		return true
	}
	return false
}

// Matches reports whether the plan applies to a run of the named workload.
// Store and net plans never match a simulation run: they are consumed by the
// store layer and the chaos proxy respectively (see MatchesStore and
// MatchesNet), and letting them leak into engine options would both perturb
// cache keys and hand core a fault it cannot perform.
func (p Plan) Matches(workload string) bool {
	return p.Enabled() && !p.IsStore() && !p.IsNet() && (p.Workload == "" || p.Workload == workload)
}

// MatchesStore reports whether a store plan applies to an operation on the
// given store key. The plan's filter (the part after ':') is a substring
// match so one plan can target a single entry ("...:Stream") or a whole key
// family without quoting full fingerprints.
func (p Plan) MatchesStore(key string) bool {
	return p.IsStore() && (p.Workload == "" || strings.Contains(key, p.Workload))
}

// MatchesNet reports whether a net plan applies to a request on the given
// URL path. The plan's filter (the part after ':') is a substring match so
// one plan can target one endpoint family ("net-drop@0:/watch") without
// spelling out full URLs.
func (p Plan) MatchesNet(path string) bool {
	return p.IsNet() && (p.Workload == "" || strings.Contains(path, p.Workload))
}

// FiresAt reports whether a net plan fires on the n-th (zero-based)
// matching request: n >= AtEvent and, when Times bounds the burst, within
// its window.
func (p Plan) FiresAt(n uint64) bool {
	if n < p.AtEvent {
		return false
	}
	return p.Times == 0 || n < p.AtEvent+p.Times
}

// String renders the plan in the syntax Parse accepts ("" when disabled).
func (p Plan) String() string {
	if !p.Enabled() {
		return ""
	}
	s := p.Kind.String()
	if p.Kind == CorruptCounter {
		s += "." + p.Target
	}
	s += fmt.Sprintf("@%d", p.AtEvent)
	if p.Times > 0 {
		s += fmt.Sprintf("#%d", p.Times)
	}
	if p.Workload != "" {
		s += ":" + p.Workload
	}
	return s
}

// Parse builds a Plan from its string form: kind@event[:workload], e.g.
// "panic@1000", "stall@50000:GEMM". The corrupt-counter kind carries its
// target as a suffix: "corrupt-counter.line-reads@1000". Store kinds use
// the same shape with store-operation counts and key filters:
// "store-torn-write@3", "store-eio@0:Stream". Net kinds count proxied
// requests, accept an optional burst length after '#', and filter on the
// request path: "net-drop@2#3", "net-truncate@0:/watch". An empty string is
// the disabled plan.
func Parse(s string) (Plan, error) {
	if s == "" {
		return Plan{}, nil
	}
	var p Plan
	rest := s
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		p.Workload = rest[i+1:]
		rest = rest[:i]
		if p.Workload == "" {
			return Plan{}, fmt.Errorf("faultinject: %q: empty workload filter", s)
		}
	}
	kindStr, atStr, ok := strings.Cut(rest, "@")
	if !ok {
		return Plan{}, fmt.Errorf("faultinject: %q: want kind@event[:workload]", s)
	}
	switch p.Kind = parseKind(kindStr); p.Kind {
	case None:
		return Plan{}, fmt.Errorf("faultinject: %q: unknown kind %q (want %s)", s, kindStr, kindList())
	case CorruptCounter:
		p.Target = strings.TrimPrefix(strings.TrimPrefix(kindStr, kindNames[CorruptCounter]), ".")
		if !ValidTarget(p.Target) {
			return Plan{}, fmt.Errorf("faultinject: %q: corrupt-counter target %q, want one of %s",
				s, p.Target, strings.Join(Targets(), ", "))
		}
	}
	if atStr, rest, ok = strings.Cut(atStr, "#"); ok {
		if !p.IsNet() {
			return Plan{}, fmt.Errorf("faultinject: %q: burst count '#' is only valid on net kinds", s)
		}
		times, err := strconv.ParseUint(rest, 10, 64)
		if err != nil || times == 0 {
			return Plan{}, fmt.Errorf("faultinject: %q: bad burst count %q", s, rest)
		}
		p.Times = times
	}
	at, err := strconv.ParseUint(atStr, 10, 64)
	if err != nil {
		return Plan{}, fmt.Errorf("faultinject: %q: bad event count %q", s, atStr)
	}
	p.AtEvent = at
	return p, nil
}

// ParseList parses a comma-separated list of plans ("net-drop@0#1,
// net-5xx@4#2"). Empty elements are skipped, so a trailing comma is not an
// error; an empty string is the empty list.
func ParseList(s string) ([]Plan, error) {
	var plans []Plan
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := Parse(part)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// FromEnv parses the plan armed through the MCMGPU_FAULT environment
// variable. An unset or empty variable yields the disabled plan.
func FromEnv() (Plan, error) {
	return Parse(os.Getenv(EnvVar))
}

// Injected is the value a Panic-kind fault panics with, so recovery layers
// and tests can recognize an injected panic unambiguously.
type Injected struct {
	Plan Plan
}

// Error makes Injected usable as an error if a recovery layer chooses to
// treat it as one.
func (i Injected) Error() string {
	return fmt.Sprintf("faultinject: injected panic (%s)", i.Plan)
}
