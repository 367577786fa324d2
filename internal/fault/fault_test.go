package fault

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mube/internal/source"
)

func TestPlanParseStringRoundTrip(t *testing.T) {
	cases := []string{
		"none",
		"rate=0.3,seed=7",
		"rate=0.1,seed=42,handshake=0.6",
		"rate=0.5,seed=1,latency=20ms",
		"rate=0.25,seed=9,latency=1s,flap=2s:0.25",
	}
	for _, want := range cases {
		p, err := ParsePlan(want)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", want, err)
		}
		if got := p.String(); got != want {
			t.Errorf("ParsePlan(%q).String() = %q", want, got)
		}
	}
}

func TestPlanParseDisabledAndErrors(t *testing.T) {
	for _, s := range []string{"", "none", "  none  "} {
		p, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", s, err)
		}
		if p.Enabled() {
			t.Errorf("ParsePlan(%q).Enabled() = true, want disabled", s)
		}
	}
	for _, s := range []string{
		"rate", "rate=2", "rate=-0.1", "handshake=1.5", "latency=abc",
		"flap=2s", "flap=2s:1.0", "bogus=1",
		"rate=NaN", "handshake=NaN", "flap=1s:NaN", "latency=-5s", "flap=-1s:0.5",
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) succeeded, want error", s)
		}
	}
}

func TestInjectorNilAndDisabled(t *testing.T) {
	if inj := NewInjector(Plan{}); inj != nil {
		t.Fatalf("NewInjector(zero plan) = %v, want nil", inj)
	}
	var inj *Injector
	f := inj.Attempt("s1", 1, time.Time{})
	if f.Err != nil || f.Latency != 0 {
		t.Errorf("nil injector fate = %+v, want clean", f)
	}
	if p := inj.Plan(); p.Enabled() {
		t.Errorf("nil injector Plan().Enabled() = true")
	}
}

// TestInjectorDeterminism: the fate of (name, attempt) is a pure function of
// the plan — independent of call order and repeatable across injectors.
func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Seed: 7, Rate: 0.4, Latency: 10 * time.Millisecond}
	a := NewInjector(plan)
	b := NewInjector(plan)
	names := []string{"src-0", "src-1", "src-2", "src-3"}
	// Draw from b in reverse order to prove order independence.
	type key struct {
		name    string
		attempt int
	}
	got := make(map[key]Fate)
	for _, n := range names {
		for k := 1; k <= 4; k++ {
			got[key{n, k}] = a.Attempt(n, k, time.Time{})
		}
	}
	for i := len(names) - 1; i >= 0; i-- {
		for k := 4; k >= 1; k-- {
			f := b.Attempt(names[i], k, time.Time{})
			if want := got[key{names[i], k}]; f != want {
				t.Fatalf("fate(%s,%d) = %+v from b, %+v from a", names[i], k, f, want)
			}
		}
	}
}

func TestInjectorRateAndLatencyBounds(t *testing.T) {
	plan := Plan{Seed: 3, Rate: 0.3, Latency: 100 * time.Millisecond}
	inj := NewInjector(plan)
	fails := 0
	const n = 2000
	for i := 0; i < n; i++ {
		f := inj.Attempt("src", i+1, time.Time{})
		if f.Err != nil {
			fails++
			if !errors.Is(f.Err, ErrUnreachable) && !errors.Is(f.Err, ErrStream) {
				t.Fatalf("unexpected fate error %v", f.Err)
			}
			if errors.Is(f.Err, ErrStream) && f.FailAfter < 1 {
				t.Fatalf("stream fate FailAfter = %d, want >= 1", f.FailAfter)
			}
		}
		if f.Latency < 50*time.Millisecond || f.Latency >= 150*time.Millisecond {
			t.Fatalf("latency %v outside [0.5·L, 1.5·L)", f.Latency)
		}
	}
	// 0.3 ± generous slack over 2000 draws.
	if rate := float64(fails) / n; rate < 0.24 || rate > 0.36 {
		t.Errorf("empirical failure rate %.3f, want ≈0.30", rate)
	}
}

func TestFlapSchedule(t *testing.T) {
	plan := Plan{Seed: 5, FlapPeriod: time.Second, FlapDuty: 0.25}
	inj := NewInjector(plan)
	clock := NewVirtualClock(time.Time{})
	down := 0
	const steps = 400
	for i := 0; i < steps; i++ {
		if f := inj.Attempt("flappy", 1, clock.Now()); errors.Is(f.Err, ErrUnreachable) {
			down++
		}
		clock.Sleep(25 * time.Millisecond) // 40 samples per period
	}
	if frac := float64(down) / steps; frac < 0.2 || frac > 0.3 {
		t.Errorf("down fraction %.3f, want ≈ duty 0.25", frac)
	}
}

// sliceIter iterates a fixed tuple slice.
type sliceIter struct {
	tuples []source.TupleID
	i      int
}

func (it *sliceIter) Next() (source.TupleID, bool) {
	if it.i >= len(it.tuples) {
		return 0, false
	}
	t := it.tuples[it.i]
	it.i++
	return t, true
}

func TestStreamFates(t *testing.T) {
	tuples := []source.TupleID{10, 20, 30, 40, 50}
	// Clean fate: passes everything through.
	s := NewStream(&sliceIter{tuples: tuples}, Fate{})
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 5 || s.Err() != nil || s.Delivered() != 5 {
		t.Fatalf("clean stream: n=%d err=%v delivered=%d", n, s.Err(), s.Delivered())
	}

	// Handshake fate: fails before any tuple.
	s = NewStream(&sliceIter{tuples: tuples}, Fate{Err: ErrUnreachable})
	if _, ok := s.Next(); ok {
		t.Fatal("handshake fate delivered a tuple")
	}
	if !errors.Is(s.Err(), ErrUnreachable) {
		t.Fatalf("handshake stream err = %v", s.Err())
	}

	// Mid-stream fate: fails after FailAfter tuples.
	s = NewStream(&sliceIter{tuples: tuples}, Fate{Err: ErrStream, FailAfter: 3})
	n = 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 3 || !errors.Is(s.Err(), ErrStream) {
		t.Fatalf("mid-stream fate: delivered %d err=%v, want 3 tuples then ErrStream", n, s.Err())
	}

	// A failing fate whose FailAfter outlives the stream still fails at
	// exhaustion: the connection died before the final ack.
	s = NewStream(&sliceIter{tuples: tuples}, Fate{Err: ErrStream, FailAfter: 99})
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if !errors.Is(s.Err(), ErrStream) {
		t.Fatalf("exhaustion fate err = %v, want ErrStream", s.Err())
	}
}

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock(time.Time{})
	c.Sleep(time.Second)
	c.Sleep(-time.Hour) // negative sleeps are ignored
	if got := c.Now(); !got.Equal(time.Time{}.Add(time.Second)) {
		t.Errorf("clock at %v, want zero+1s", got)
	}
}

// TestVirtualClockConcurrent hammers Now and Sleep from many goroutines under
// -race: the clock must never tear and must account for every positive sleep
// exactly once. (Sequential probing keeps the deterministic core single-
// threaded, but telemetry recorders stamp events with the same clock from the
// solve goroutine while watch loops advance it — so the type itself must be
// safe.)
func TestVirtualClockConcurrent(t *testing.T) {
	c := NewVirtualClock(time.Time{})
	const (
		sleepers = 8
		readers  = 8
		perG     = 1000
	)
	var wg sync.WaitGroup
	for g := 0; g < sleepers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Sleep(time.Millisecond)
				c.Sleep(-time.Second) // ignored
			}
		}()
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := c.Now()
			for i := 0; i < perG; i++ {
				now := c.Now()
				if now.Before(prev) {
					t.Error("virtual clock moved backwards")
					return
				}
				prev = now
			}
		}()
	}
	wg.Wait()
	want := time.Time{}.Add(sleepers * perG * time.Millisecond)
	if got := c.Now(); !got.Equal(want) {
		t.Errorf("clock at %v after concurrent sleeps, want %v", got, want)
	}
}
