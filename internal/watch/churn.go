// Churn scheduling: which sources die, drift, recover, and arrive each
// epoch. All randomness comes from the loop's single seeded stream, drawn in
// universe ID order, so the schedule is a pure function of (Config, epoch).
package watch

import (
	"fmt"

	"mube/internal/pcsa"
	"mube/internal/probe"
	"mube/internal/schema"
	"mube/internal/source"
	"mube/internal/synth"
)

// pDie is a source's per-epoch death probability: half the churn budget,
// weighted by the universe's mean MTTF over the source's own — short-lived
// sources die proportionally more often, matching the MTTF characteristic
// the synthesizer assigns (§5).
func (l *Loop) pDie(s *source.Source) float64 {
	p := l.cfg.ChurnRate * 0.5
	if l.mttfRef > 0 {
		if mttf, ok := s.Characteristic("mttf"); ok && mttf > 0 {
			p *= l.mttfRef / mttf
		}
	}
	if p > 1 {
		p = 1
	}
	return p
}

// scheduleDeaths draws the epoch's deaths: one Float64 per source, ID order.
func (l *Loop) scheduleDeaths() []schema.SourceID {
	var dead []schema.SourceID
	for _, s := range l.u.Sources() {
		if l.rng.Float64() < l.pDie(s) {
			dead = append(dead, s.ID)
		}
	}
	return dead
}

// reprobe runs the retry/breaker state machine over every source that is not
// already scheduled to die: cooperative sources that trip the breaker join
// the dead, ones that exhaust their attempts degrade in place (their
// synopses cached for later recovery), and previously-degraded sources whose
// outage has passed are restored. Returns the extended dead list.
func (l *Loop) reprobe(dead []schema.SourceID, rep *DeltaReport) []schema.SourceID {
	deadSet := make(map[schema.SourceID]bool, len(dead))
	for _, id := range dead {
		deadSet[id] = true
	}
	for _, s := range l.u.Sources() {
		if deadSet[s.ID] {
			continue
		}
		if s.Cooperative() {
			switch l.prober.ReprobeOne(s).Status {
			case probe.StatusDropped:
				dead = append(dead, s.ID)
				rep.Dropped++
			case probe.StatusDegraded:
				// Cache the synopses before they are wiped; synopses are
				// immutable, so the cached signature stays valid.
				l.pristine[s.Name] = pristineSyn{card: s.Cardinality, sig: s.Signature}
				if err := l.u.Degrade(s.ID); err != nil {
					panic(fmt.Sprintf("watch: degrade %q: %v", s.Name, err))
				}
				l.touched = append(l.touched, s.ID)
				rep.Degraded++
			}
			continue
		}
		// Degraded earlier in this run? Probe for recovery (the fates depend
		// on the name alone, and the breaker state is per-round, so a clean
		// outage window re-admits it on the first attempt).
		pr, ok := l.pristine[s.Name]
		if !ok {
			continue // uncooperative by nature, nothing to recover
		}
		switch l.prober.ReprobeOne(s).Status {
		case probe.StatusHealthy:
			if err := l.u.UpdateSynopsis(s.ID, pr.card, pr.sig); err != nil {
				panic(fmt.Sprintf("watch: restore %q: %v", s.Name, err))
			}
			delete(l.pristine, s.Name)
			l.touched = append(l.touched, s.ID)
			rep.Recovered++
		case probe.StatusDropped:
			dead = append(dead, s.ID)
			rep.Dropped++
		}
	}
	return dead
}

// scheduleDrift re-synthesizes the vocabulary of surviving cooperative
// sources with probability ChurnRate/2 each: a fresh signature over a
// shifted tuple range and a ±20% cardinality move, applied in place via
// UpdateSynopsis so IDs (and any constraints on them) are untouched.
func (l *Loop) scheduleDrift(rep *DeltaReport) error {
	for _, s := range l.u.Sources() {
		if !s.Cooperative() {
			continue
		}
		if l.rng.Float64() >= l.cfg.ChurnRate*0.5 {
			continue
		}
		card := s.Cardinality
		if card < 1 {
			card = 1
		}
		nc := int64(float64(card) * (0.8 + 0.4*l.rng.Float64()))
		if nc < 1 {
			nc = 1
		}
		base := l.rng.Uint64() >> 1
		sig, err := pcsa.New(l.u.SignatureConfig())
		if err != nil {
			return fmt.Errorf("watch: drift %q: %w", s.Name, err)
		}
		for i := uint64(0); i < uint64(nc); i++ {
			sig.AddUint64(base + i)
		}
		if err := l.u.UpdateSynopsis(s.ID, nc, sig); err != nil {
			return fmt.Errorf("watch: drift %q: %w", s.Name, err)
		}
		l.touched = append(l.touched, s.ID)
		rep.Drifted++
	}
	return nil
}

// scheduleArrivals streams n new sources into the universe — the open
// Internet replaces what it loses. Arrivals get an epoch-unique name prefix
// (name formatting draws nothing from synth's RNG, so the prefix cannot
// perturb generation) and a per-epoch stream seed.
func (l *Loop) scheduleArrivals(n int, rep *DeltaReport) error {
	if n == 0 {
		return nil
	}
	cfg := l.cfg.Arrivals
	cfg.NumSources = n
	cfg.Seed = l.cfg.Seed + int64(l.epoch)*2_000_003
	cfg.NamePrefix = fmt.Sprintf("e%03d-", l.epoch)
	err := synth.Stream(cfg, l.u.Vocab(), func(s *source.Source, _ synth.SourceMeta) error {
		id, err := l.u.Add(s)
		if err != nil {
			return err
		}
		l.touched = append(l.touched, id)
		rep.Arrived++
		return nil
	})
	if err != nil {
		return fmt.Errorf("watch: epoch %d arrivals: %w", l.epoch, err)
	}
	return nil
}
