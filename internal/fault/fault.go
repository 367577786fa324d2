// Package fault provides a deterministic, seed-driven fault injector for
// Internet-scale source acquisition. µBE's premise is selecting sources from
// an open universe (paper §1–2), where unavailability is the common case, not
// the exception; this package lets the probing layer (internal/probe) and the
// experiment harness exercise exactly those conditions reproducibly.
//
// Everything is a pure function of the plan seed: the fate of probe attempt k
// against source "name" is derived by hashing (seed, name, k), never by
// consuming shared RNG state, so fault schedules are independent of probe
// order, worker count, and wall-clock time. Time itself is virtual: the
// injector and its consumers read an injected Clock (the determinism analyzer
// forbids time.Now/time.Sleep/time.After in this package), so latency and
// flap/outage schedules advance deterministically and tests complete
// instantly.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"mube/internal/source"
)

// Clock is the injected time source every fault-aware component reads.
// Sleeping advances the clock; nothing in the deterministic core ever blocks
// on wall time.
type Clock interface {
	// Now returns the current (virtual or real) time.
	Now() time.Time
	// Sleep advances the clock by d (virtual clocks return immediately).
	Sleep(d time.Duration)
}

// VirtualClock is a Clock that starts at a fixed instant and advances only
// when slept on. Now and Sleep are safe to call concurrently (a telemetry
// recorder stamping events from the solve goroutine may share the clock with
// a watch loop, and tests hammer it under -race); determinism is still the
// caller's to keep — probing is sequential by design, so the deterministic
// core never races sleeps against each other.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock returns a virtual clock starting at start. The zero time is
// a fine start for simulations: only durations matter.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the virtual instant.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the virtual clock by d without blocking.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Injection errors. Consumers distinguish reachability (ErrUnreachable: the
// source never answered — counts toward the circuit breaker) from stream
// faults (ErrStream: the source answered but the scan died — retry-worthy)
// and deadline overruns (ErrDeadline: the probe outlived its budget).
var (
	ErrUnreachable = errors.New("fault: source unreachable")
	ErrStream      = errors.New("fault: tuple stream interrupted")
	ErrDeadline    = errors.New("fault: probe deadline exceeded")
)

// Plan is one reproducible fault schedule. The zero Plan injects nothing.
type Plan struct {
	// Seed drives every fate draw. Two injectors with equal plans produce
	// bit-identical schedules.
	Seed int64
	// Rate is the probability in [0,1] that any given probe attempt fails.
	Rate float64
	// HandshakeFrac is the fraction of injected failures that occur at the
	// handshake (before any tuple flows) rather than mid-stream. Zero means
	// the default 0.5.
	HandshakeFrac float64
	// Latency (≥ 0) is the mean per-attempt latency; each attempt draws
	// uniformly from [0.5·Latency, 1.5·Latency). Zero injects no latency.
	Latency time.Duration
	// FlapPeriod/FlapDuty model scheduled outages: each source is down for
	// FlapDuty (in [0,1)) of every FlapPeriod (≥ 0), phase-shifted per
	// source so the universe never flaps in unison. During an outage every
	// attempt fails at the handshake. FlapPeriod == 0 disables flapping.
	FlapPeriod time.Duration
	FlapDuty   float64
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.Rate > 0 || p.Latency > 0 || (p.FlapPeriod > 0 && p.FlapDuty > 0)
}

// String renders the plan in the canonical ParsePlan syntax (run headers
// embed it so degraded runs are never mistaken for clean ones).
func (p Plan) String() string {
	if !p.Enabled() {
		return "none"
	}
	parts := []string{fmt.Sprintf("rate=%g", p.Rate), fmt.Sprintf("seed=%d", p.Seed)}
	if p.HandshakeFrac > 0 {
		parts = append(parts, fmt.Sprintf("handshake=%g", p.HandshakeFrac))
	}
	if p.Latency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%s", p.Latency))
	}
	if p.FlapPeriod > 0 && p.FlapDuty > 0 {
		parts = append(parts, fmt.Sprintf("flap=%s:%g", p.FlapPeriod, p.FlapDuty))
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses a comma-separated fault plan, e.g.
//
//	rate=0.3,seed=7,latency=20ms,flap=2s:0.25,handshake=0.6
//
// "none" and "" parse to the zero (disabled) plan. Keys: rate, seed,
// handshake, latency, flap=<period>:<duty>. Every value must lie in the
// range its Plan field documents; NaN lies in none.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return Plan{}, fmt.Errorf("fault: bad plan term %q (want key=value)", part)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		var err error
		switch key {
		case "rate":
			p.Rate, err = strconv.ParseFloat(val, 64)
			if err == nil && !(p.Rate >= 0 && p.Rate <= 1) {
				err = fmt.Errorf("rate %v out of [0,1]", p.Rate)
			}
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "handshake":
			p.HandshakeFrac, err = strconv.ParseFloat(val, 64)
			if err == nil && !(p.HandshakeFrac >= 0 && p.HandshakeFrac <= 1) {
				err = fmt.Errorf("handshake %v out of [0,1]", p.HandshakeFrac)
			}
		case "latency":
			p.Latency, err = time.ParseDuration(val)
			if err == nil && p.Latency < 0 {
				err = fmt.Errorf("latency %v is negative", p.Latency)
			}
		case "flap":
			pd := strings.SplitN(val, ":", 2)
			if len(pd) != 2 {
				err = fmt.Errorf("flap wants <period>:<duty>")
				break
			}
			if p.FlapPeriod, err = time.ParseDuration(pd[0]); err != nil {
				break
			}
			if p.FlapPeriod < 0 {
				err = fmt.Errorf("flap period %v is negative", p.FlapPeriod)
				break
			}
			if p.FlapDuty, err = strconv.ParseFloat(pd[1], 64); err != nil {
				break
			}
			if !(p.FlapDuty >= 0 && p.FlapDuty < 1) {
				err = fmt.Errorf("flap duty %v out of [0,1)", p.FlapDuty)
			}
		default:
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return Plan{}, fmt.Errorf("fault: plan term %q: %v", part, err)
		}
	}
	return p, nil
}

// Injector draws per-attempt fates from a Plan. A nil *Injector (or one built
// from a disabled plan) injects nothing, so callers never need to branch.
type Injector struct {
	plan Plan
}

// NewInjector returns an injector for the plan, or nil when the plan is
// disabled.
func NewInjector(plan Plan) *Injector {
	if !plan.Enabled() {
		return nil
	}
	return &Injector{plan: plan}
}

// Plan returns the injector's plan (the zero plan for a nil injector).
func (inj *Injector) Plan() Plan {
	if inj == nil {
		return Plan{}
	}
	return inj.plan
}

// Fate is the predetermined outcome of one probe attempt.
type Fate struct {
	// Err is nil for a clean attempt; otherwise ErrUnreachable (handshake
	// failure) or ErrStream (mid-scan failure).
	Err error
	// FailAfter is the number of tuples delivered before a mid-stream fate
	// raises Err (0 for handshake failures).
	FailAfter int64
	// Latency is this attempt's injected latency.
	Latency time.Duration
}

// Handshake reports whether the fate fails before any tuple flows — the
// signal probe's circuit breaker counts, because it means the source never
// answered at all.
func (f Fate) Handshake() bool { return errors.Is(f.Err, ErrUnreachable) }

// Attempt draws the fate of probe attempt number attempt (1-based) against
// the named source at virtual instant now. The draw is a pure function of
// (plan seed, name, attempt, now): repeated calls agree, and no shared state
// is consumed.
func (inj *Injector) Attempt(name string, attempt int, now time.Time) Fate {
	if inj == nil {
		return Fate{}
	}
	var f Fate
	if inj.plan.Latency > 0 {
		u := u01(inj.draw(name, attempt, saltLatency))
		f.Latency = time.Duration((0.5 + u) * float64(inj.plan.Latency))
	}
	if inj.down(name, now) {
		f.Err = ErrUnreachable
		return f
	}
	if inj.plan.Rate > 0 && u01(inj.draw(name, attempt, saltFail)) < inj.plan.Rate {
		hf := inj.plan.HandshakeFrac
		if hf == 0 {
			hf = 0.5
		}
		if u01(inj.draw(name, attempt, saltKind)) < hf {
			f.Err = ErrUnreachable
		} else {
			f.Err = ErrStream
			f.FailAfter = 1 + int64(inj.draw(name, attempt, saltWhere)%4096)
		}
	}
	return f
}

// down reports whether name's flap schedule has it offline at now.
func (inj *Injector) down(name string, now time.Time) bool {
	period := inj.plan.FlapPeriod
	if period <= 0 || inj.plan.FlapDuty <= 0 {
		return false
	}
	// Phase-shift each source by a hash of its name so outages are spread
	// across the universe instead of synchronized.
	offset := int64(inj.draw(name, 0, saltPhase) % uint64(period))
	phase := (now.UnixNano() + offset) % int64(period)
	if phase < 0 {
		phase += int64(period)
	}
	return float64(phase) < inj.plan.FlapDuty*float64(period)
}

// Salts separate the independent random streams derived per (name, attempt).
const (
	saltFail = iota + 1
	saltKind
	saltWhere
	saltLatency
	saltPhase
)

// draw hashes (seed, name, attempt, salt) into a uniform uint64 using FNV-1a
// over the name followed by a splitmix64 finalizer.
func (inj *Injector) draw(name string, attempt int, salt uint64) uint64 {
	h := uint64(inj.plan.Seed) ^ 0xcbf29ce484222325
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	h ^= uint64(attempt)*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// u01 maps a uint64 to [0,1) with 53-bit precision.
func u01(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Stream wraps a tuple iterator with a fate: a failing fate raises its error
// at the handshake, after FailAfter tuples, or — if the underlying stream
// runs out first — at exhaustion (the connection died before the final ack),
// so a failing fate always fails. A clean fate passes tuples through
// unchanged.
type Stream struct {
	inner     source.TupleIterator
	fate      Fate
	delivered int64
	err       error
}

// NewStream wraps it with the fate.
func NewStream(it source.TupleIterator, fate Fate) *Stream {
	return &Stream{inner: it, fate: fate}
}

// Next implements source.TupleIterator; consult Err after exhaustion.
func (s *Stream) Next() (source.TupleID, bool) {
	if s.err != nil {
		return 0, false
	}
	if s.fate.Err != nil && (s.fate.Handshake() || s.delivered >= s.fate.FailAfter) {
		s.err = s.fate.Err
		return 0, false
	}
	t, ok := s.inner.Next()
	if !ok {
		if s.fate.Err != nil {
			s.err = s.fate.Err
		}
		return 0, false
	}
	s.delivered++
	return t, true
}

// Err returns the injected error that terminated the stream, or nil if the
// scan completed cleanly.
func (s *Stream) Err() error { return s.err }

// Delivered returns the number of tuples the stream yielded before stopping.
func (s *Stream) Delivered() int64 { return s.delivered }
