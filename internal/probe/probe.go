// Package probe builds sources — and whole universes — from possibly-failing
// tuple streams. The paper assumes cooperative sources export their synopses
// on request (§4); at Internet scale that request fails routinely, so the
// prober retries each source with bounded exponential backoff and seeded
// jitter under a per-probe deadline, trips a per-source circuit breaker when
// a source never answers at all, and — crucially — degrades instead of
// aborting: a cooperative source whose synopsis scan cannot be completed is
// downgraded to an *uncooperative* one (§4's own fallback: it still exports
// its schema and characteristics and can still be selected, it just scores
// zero on the data-dependent QEFs). Universe construction therefore always
// completes, and a HealthReport records exactly what happened to every
// source.
//
// Determinism: probing is sequential, all randomness comes from the seeded
// backoff RNG and the fault injector's pure per-(source, attempt) draws, and
// time flows through an injected fault.Clock — so identical plans and seeds
// produce bit-identical universes and reports at any evaluator worker count.
package probe

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mube/internal/fault"
	"mube/internal/pcsa"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/telemetry"
)

// Status classifies the final outcome of probing one source.
type Status string

const (
	// StatusHealthy: the synopsis scan completed (or the source is
	// schema-only by design) and the source joined the universe unchanged.
	StatusHealthy Status = "healthy"
	// StatusDegraded: every scan attempt failed but the source answered at
	// least once, so it joined the universe as uncooperative.
	StatusDegraded Status = "degraded"
	// StatusDropped: the circuit breaker tripped — BreakerLimit consecutive
	// handshake failures without a single answer — and the source was
	// excluded from the universe.
	StatusDropped Status = "dropped"
)

// Policy bounds the prober's persistence per source.
type Policy struct {
	// MaxAttempts is the number of synopsis-scan attempts per source.
	// Default 4.
	MaxAttempts int
	// BaseBackoff is the first retry delay; each subsequent retry doubles
	// it up to MaxBackoff, with seeded half-range jitter. Defaults 100ms /
	// 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// ProbeTimeout is the per-probe deadline: an attempt whose injected
	// latency alone exceeds it fails with fault.ErrDeadline. Zero means no
	// deadline.
	ProbeTimeout time.Duration
	// BreakerLimit is the number of *consecutive* handshake failures
	// (fault.ErrUnreachable — the source never answered) that trips the
	// per-source circuit breaker and drops the source outright. Any answer,
	// even a failing scan, resets the count. Default MaxAttempts, so a
	// source is never dropped unless every attempt ended before the
	// handshake.
	BreakerLimit int
}

// WithDefaults fills zero fields with the package defaults.
func (p Policy) WithDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.BreakerLimit == 0 {
		p.BreakerLimit = p.MaxAttempts
	}
	return p
}

// Candidate is one source to acquire: its schema and characteristics are
// known (from discovery), its synopsis must be probed. A nil Open marks a
// source that is uncooperative by design — it joins schema-only without
// probing.
type Candidate struct {
	Name            string
	Schema          schema.Schema
	Characteristics []source.Characteristic
	// Open starts one fresh tuple scan; the prober calls it once per
	// attempt.
	Open func() source.TupleIterator
}

// Result records the probing outcome for one source.
type Result struct {
	// Name identifies the source (IDs are assigned only to kept sources).
	Name string `json:"name"`
	// Status is the final outcome.
	Status Status `json:"status"`
	// Attempts is the number of probe attempts made (0 for schema-only
	// candidates).
	Attempts int `json:"attempts"`
	// Retries is Attempts-1 for probed sources, 0 otherwise.
	Retries int `json:"retries"`
	// ID is the source's ID in the constructed universe, or -1 if dropped.
	ID schema.SourceID `json:"id"`
	// Err is the last probe error, "" when healthy.
	Err string `json:"err,omitempty"`
}

// HealthReport summarizes an acquisition run: what the universe is made of
// despite N sources misbehaving.
type HealthReport struct {
	// Plan is the canonical fault-plan string in effect ("none" when clean).
	Plan string `json:"plan"`
	// Probed counts candidates that required a synopsis scan.
	Probed int `json:"probed"`
	// Healthy/Degraded/Dropped partition all candidates.
	Healthy  int `json:"healthy"`
	Degraded int `json:"degraded"`
	Dropped  int `json:"dropped"`
	// Sources holds one Result per candidate, in acquisition order.
	Sources []Result `json:"sources"`
}

// DegradedNames lists the sources that were downgraded to uncooperative.
func (h *HealthReport) DegradedNames() []string {
	var names []string
	for _, r := range h.Sources {
		if r.Status == StatusDegraded {
			names = append(names, r.Name)
		}
	}
	return names
}

// DroppedNames lists the sources the circuit breaker excluded.
func (h *HealthReport) DroppedNames() []string {
	var names []string
	for _, r := range h.Sources {
		if r.Status == StatusDropped {
			names = append(names, r.Name)
		}
	}
	return names
}

// String renders a one-line summary for run headers.
func (h *HealthReport) String() string {
	return fmt.Sprintf("faults=%s probed=%d healthy=%d degraded=%d dropped=%d",
		h.Plan, h.Probed, h.Healthy, h.Degraded, h.Dropped)
}

// Clone deep-copies the report; a nil receiver clones to nil.
func (h *HealthReport) Clone() *HealthReport {
	if h == nil {
		return nil
	}
	cp := *h
	cp.Sources = append([]Result(nil), h.Sources...)
	return &cp
}

// add appends r and updates the aggregate counters.
func (h *HealthReport) add(r Result) {
	h.Sources = append(h.Sources, r)
	switch r.Status {
	case StatusHealthy:
		h.Healthy++
	case StatusDegraded:
		h.Degraded++
	case StatusDropped:
		h.Dropped++
	}
}

// Prober acquires sources under a retry policy, a fault injector (nil for a
// clean network), and an injected clock.
type Prober struct {
	policy Policy
	clock  fault.Clock
	inj    *fault.Injector
	rng    *rand.Rand          // backoff jitter only
	rec    *telemetry.Recorder // nil = telemetry off
}

// Instrument attaches a telemetry recorder (nil disables) and returns the
// prober for chaining. To stamp probe events with virtual time, build the
// recorder with telemetry.NewClocked over the same fault.Clock the prober
// uses. Telemetry never influences probing: fates, backoff draws, and the
// resulting universe are identical with or without it.
func (p *Prober) Instrument(rec *telemetry.Recorder) *Prober {
	p.rec = rec
	return p
}

// New returns a prober. clock may be nil, selecting a virtual clock starting
// at the zero time; inj may be nil for fault-free acquisition. seed drives
// backoff jitter (which is the prober's only stochastic choice).
func New(policy Policy, clock fault.Clock, inj *fault.Injector, seed int64) *Prober {
	if clock == nil {
		clock = fault.NewVirtualClock(time.Time{})
	}
	return &Prober{
		policy: policy.WithDefaults(),
		clock:  clock,
		inj:    inj,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Probe acquires one candidate under the policy. It never fails universe
// construction: the returned source is nil only when Status is
// StatusDropped.
func (p *Prober) Probe(c Candidate, cfg pcsa.Config) (*source.Source, Result) {
	if c.Open == nil {
		// Uncooperative by design: nothing to probe.
		res := Result{Name: c.Name, ID: -1, Status: StatusHealthy}
		p.record(res)
		return p.schemaOnly(c), res
	}
	var s *source.Source
	res := p.attempts(c.Name, func(fate fault.Fate) (err error) {
		s, err = p.synopsis(c, cfg, fate)
		return err
	})
	switch res.Status {
	case StatusHealthy:
		return s, res
	case StatusDropped:
		return nil, res
	}
	// Retries exhausted but the source answered at least once: degrade to
	// uncooperative (§4 — it still exports schema and characteristics).
	return p.schemaOnly(c), res
}

// attempts runs the retry/breaker state machine for the named source: each
// attempt draws its fate, pays the fate's latency, and fails past the probe
// deadline or at a handshake failure; otherwise scan, when non-nil, reads
// the stream. Without a scan the fate's own error decides the attempt, as
// the scan would: fault.Stream fails whenever its fate fails. BreakerLimit
// consecutive handshake failures drop the source; retries are spaced by
// jittered backoff, and exhausting them degrades the source. Breaker state
// is local to the call.
func (p *Prober) attempts(name string, scan func(fault.Fate) error) Result {
	res := Result{Name: name, ID: -1}
	consecHandshake := 0
	for attempt := 1; attempt <= p.policy.MaxAttempts; attempt++ {
		res.Attempts = attempt
		res.Retries = attempt - 1
		fate := p.inj.Attempt(name, attempt, p.clock.Now())
		p.clock.Sleep(fate.Latency)
		err := fate.Err
		if p.policy.ProbeTimeout > 0 && fate.Latency > p.policy.ProbeTimeout {
			err = fault.ErrDeadline
		} else if scan != nil && !fate.Handshake() {
			err = scan(fate)
		}
		if err == nil {
			res.Status = StatusHealthy
			res.Err = ""
			p.record(res)
			return res
		}
		res.Err = err.Error()
		if p.rec != nil {
			p.rec.Emit("probe.attempt",
				telemetry.Str("source", name),
				telemetry.Int("attempt", attempt),
				telemetry.Str("err", err.Error()))
		}
		if errors.Is(err, fault.ErrUnreachable) {
			consecHandshake++
			if consecHandshake >= p.policy.BreakerLimit {
				// Breaker open: the source never answered once. Past this
				// limit it is dropped rather than degraded — there is no
				// evidence it exists at all anymore.
				res.Status = StatusDropped
				p.rec.Add("probe.breaker_trips", 1)
				p.record(res)
				return res
			}
		} else {
			consecHandshake = 0
		}
		if attempt < p.policy.MaxAttempts {
			d := p.backoff(attempt)
			if p.rec != nil {
				p.rec.Add("probe.backoff_ns", d.Nanoseconds())
				p.rec.Emit("probe.backoff",
					telemetry.Str("source", name),
					telemetry.Int("attempt", attempt),
					telemetry.Int64("wait_ns", d.Nanoseconds()))
			}
			p.clock.Sleep(d)
		}
	}
	res.Status = StatusDegraded
	p.record(res)
	return res
}

// record tallies one finished probe into the run's metrics and emits the
// probe.result event. Probing is sequential, so emission order — and with it
// the trace bytes — is a pure function of the candidate list, plan, and seed.
func (p *Prober) record(res Result) {
	if p.rec == nil {
		return
	}
	p.rec.Add("probe.attempts", int64(res.Attempts))
	p.rec.Add("probe.retries", int64(res.Retries))
	p.rec.Add("probe."+string(res.Status), 1)
	p.rec.Emit("probe.result",
		telemetry.Str("source", res.Name),
		telemetry.Str("status", string(res.Status)),
		telemetry.Int("attempts", res.Attempts))
}

// synopsis reads one attempt's (possibly fault-wrapped) stream into a fresh
// synopsis.
func (p *Prober) synopsis(c Candidate, cfg pcsa.Config, fate fault.Fate) (*source.Source, error) {
	st := fault.NewStream(c.Open(), fate)
	sig, err := pcsa.New(cfg)
	if err != nil {
		return nil, err
	}
	var n int64
	for {
		t, ok := st.Next()
		if !ok {
			break
		}
		sig.AddUint64(t)
		n++
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	return &source.Source{
		ID:              -1,
		Name:            c.Name,
		Schema:          c.Schema,
		Cardinality:     n,
		Signature:       sig,
		Characteristics: c.Characteristics,
	}, nil
}

// schemaOnly materializes the candidate's uncooperative form.
func (p *Prober) schemaOnly(c Candidate) *source.Source {
	s := source.Uncooperative(c.Name, c.Schema)
	s.Characteristics = c.Characteristics
	return s
}

// backoff returns the bounded exponential delay before retry number attempt,
// jittered over its upper half so synchronized retries spread out.
func (p *Prober) backoff(attempt int) time.Duration {
	d := p.policy.BaseBackoff << uint(attempt-1)
	if d <= 0 || d > p.policy.MaxBackoff {
		d = p.policy.MaxBackoff
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + p.rng.Int63n(half+1))
}

// BuildUniverse probes every candidate in order and assembles the surviving
// sources into a universe. Construction always completes; the report names
// every degraded and dropped source.
func (p *Prober) BuildUniverse(cfg pcsa.Config, cands []Candidate) (*source.Universe, *HealthReport, error) {
	span := p.rec.BeginSpan("probe.build", telemetry.Int("candidates", len(cands)))
	u := source.NewUniverse(cfg)
	rep := &HealthReport{Plan: p.inj.Plan().String()}
	for _, c := range cands {
		s, res := p.Probe(c, cfg)
		if c.Open != nil {
			rep.Probed++
		}
		if s != nil {
			id, err := u.Add(s)
			if err != nil {
				span.End(telemetry.Str("err", err.Error()))
				return nil, nil, fmt.Errorf("probe: add %q: %w", c.Name, err)
			}
			res.ID = id
		}
		rep.add(res)
	}
	// Materialize the universe-wide aggregates (total cardinality, |∪U|
	// estimate) now, at acquisition time, so the first Coverage evaluation
	// does not pay for the full-universe union merge.
	u.Precompute()
	span.End(telemetry.Int("sources", u.Len()), telemetry.Int("dropped", rep.Dropped))
	return u, rep, nil
}

// ReprobeUniverse simulates acquisition of an already-materialized universe
// under the prober's fault plan: each cooperative source goes through the
// full retry/breaker state machine (using fates only — its synopsis is
// already known, so a successful attempt keeps the original source), failed
// sources are degraded to uncooperative copies, and breaker-tripped sources
// are dropped. Schema-only sources join unchanged. It returns the rebuilt
// universe, the health report, and kept — the original IDs of the new
// universe's sources in order (kept[newID] == oldID), for remapping
// ID-indexed ground truth.
func (p *Prober) ReprobeUniverse(u *source.Universe) (*source.Universe, *HealthReport, []schema.SourceID, error) {
	span := p.rec.BeginSpan("probe.reprobe", telemetry.Int("sources", u.Len()))
	nu := source.NewUniverse(u.SignatureConfig())
	rep := &HealthReport{Plan: p.inj.Plan().String()}
	var kept []schema.SourceID
	for _, s := range u.Sources() {
		oldID := s.ID
		res := Result{Name: s.Name, ID: -1, Status: StatusHealthy}
		if s.Cooperative() {
			rep.Probed++
			res = p.ReprobeOne(s)
		}
		var add *source.Source
		switch res.Status {
		case StatusHealthy:
			add = cloneSource(s)
		case StatusDegraded:
			add = source.Uncooperative(s.Name, s.Schema)
			add.Characteristics = s.Characteristics
		}
		if add != nil {
			id, err := nu.Add(add)
			if err != nil {
				span.End(telemetry.Str("err", err.Error()))
				return nil, nil, nil, fmt.Errorf("probe: re-add %q: %w", s.Name, err)
			}
			res.ID = id
			kept = append(kept, oldID)
		}
		rep.add(res)
	}
	// As in BuildUniverse: pay for the universe aggregates here, not in the
	// first evaluation after re-acquisition.
	nu.Precompute()
	span.End(telemetry.Int("kept", nu.Len()), telemetry.Int("dropped", rep.Dropped))
	return nu, rep, kept, nil
}

// ReprobeOne runs the retry/breaker attempt loop for one known source using
// fault fates alone: its synopsis is already cached, so only its name is
// read. The Result's status says what to do with the source — keep it
// (healthy), drop it (the breaker tripped), or degrade it to uncooperative
// (every attempt failed without tripping). Breaker state is local to the
// call: a source that recovers between reprobe rounds starts the next round
// with a clean slate, which is what lets a watch loop re-admit flapping
// sources. Unlike ReprobeUniverse it emits no health report — callers
// aggregate the Results themselves; an instrumented prober records the same
// probe.* telemetry as Probe.
func (p *Prober) ReprobeOne(s *source.Source) Result {
	return p.attempts(s.Name, nil)
}

// cloneSource shallow-copies s so it can be re-added to a fresh universe
// without mutating the original's ID (synopses are immutable and shared).
func cloneSource(s *source.Source) *source.Source {
	cp := *s
	cp.ID = -1
	return &cp
}
