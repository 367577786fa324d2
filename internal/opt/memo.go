package opt

import (
	"math/bits"
	"slices"
	"sync"

	"mube/internal/schema"
)

// memo is the evaluator's table of computed Q(S) values: open addressing
// with linear probing over a dense entry list. A subset's hash is the
// wrapping sum of its members' mixes (idMix), so a flip's hash is its base's
// plus the add's mix minus the drop's, and no candidate is encoded to be
// looked up. The hash only chooses where to probe: every hash match is
// confirmed by comparing members, so two subsets under one hash keep two
// entries and identity never rests on the hash.
//
// An entry's members live in the ids arena. The storage comes from memoPool
// and goes back emptied when the evaluator is released, so a solve reuses the
// slots, entries and arena an earlier solve sized, and no Q value crosses
// solves.
type memo struct {
	slots   []int32 // entry index+1 at each probe position, 0 = empty; a power of two long
	entries []memoEntry
	ids     []schema.SourceID

	// pend indexes the jobs of the batch being planned by hash (job
	// index+1, 0 = empty), so a duplicate candidate finds its job. Used only
	// under the evaluator's mutex, and zero whenever it is free.
	pend []int32
}

// memoEntry is one computed subset, ids[off:off+n], and its Q value.
type memoEntry struct {
	hash   uint64
	off, n int
	v      float64
}

// memoPool recycles memo storage from one evaluator to the next; see
// Search.Release.
var memoPool = sync.Pool{New: func() any { return new(memo) }}

// idMix is one source's term of a subset hash: the SplitMix64 finalizer of
// its id, so the sum of a set's terms spreads well whatever ids it holds.
func idMix(id schema.SourceID) uint64 {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashIDs returns a subset's hash: the wrapping sum of its members' mixes.
func hashIDs(ids []schema.SourceID) uint64 {
	var h uint64
	for _, id := range ids {
		h += idMix(id)
	}
	return h
}

// flipHash returns the hash of the single flip mv (validFlip) of a base
// whose hash is h.
func flipHash(h uint64, mv Move) uint64 {
	if mv.Add >= 0 {
		h += idMix(mv.Add)
	}
	if mv.Drop >= 0 {
		h -= idMix(mv.Drop)
	}
	return h
}

// find returns the slot of the entry holding ids under hash h, or the empty
// slot where it would go, and whether it was found. The table must have an
// empty slot.
func (m *memo) find(h uint64, ids []schema.SourceID) (int, bool) {
	mask := uint64(len(m.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := m.slots[i]
		if s == 0 {
			return int(i), false
		}
		if e := &m.entries[s-1]; e.hash == h && slices.Equal(m.ids[e.off:e.off+e.n], ids) {
			return int(i), true
		}
	}
}

// lookup returns the value stored for the sorted ids under hash h.
func (m *memo) lookup(h uint64, ids []schema.SourceID) (float64, bool) {
	if len(m.slots) == 0 {
		return 0, false
	}
	if i, ok := m.find(h, ids); ok {
		return m.entries[m.slots[i]-1].v, true
	}
	return 0, false
}

// slot returns the slot for ids under h as find does, first doubling the
// table when one more entry would fill more than half of it. The entry list
// grows with it, to the half it may fill.
func (m *memo) slot(h uint64, ids []schema.SourceID) (int, bool) {
	if 2*(len(m.entries)+1) > len(m.slots) {
		m.slots = make([]int32, max(2*len(m.slots), 64))
		m.entries = slices.Grow(m.entries, len(m.slots)/2-len(m.entries))
		mask := uint64(len(m.slots) - 1)
		for k := range m.entries {
			i := m.entries[k].hash & mask
			for m.slots[i] != 0 {
				i = (i + 1) & mask
			}
			m.slots[i] = int32(k + 1)
		}
	}
	return m.find(h, ids)
}

// put stores v for the sorted ids under hash h, copying ids into the arena.
// An entry that already holds ids (stored by a concurrent caller's batch)
// takes v instead.
func (m *memo) put(h uint64, ids []schema.SourceID, v float64) {
	i, ok := m.slot(h, ids)
	if ok {
		m.entries[m.slots[i]-1].v = v
		return
	}
	m.entries = append(m.entries, memoEntry{hash: h, off: len(m.ids), n: len(ids), v: v})
	m.ids = append(m.ids, ids...)
	m.slots[i] = int32(len(m.entries))
}

// pending returns the pending-job index of a batch of n candidates: at
// least twice n slots, all empty. The caller clears it before it releases
// the evaluator's mutex.
func (m *memo) pending(n int) []int32 {
	size := 1 << bits.Len(uint(2*n))
	if len(m.pend) < size {
		m.pend = make([]int32, size)
	}
	return m.pend[:size]
}

// pendingJob probes the pending index pend for the job holding ids under
// hash h. It returns that job's index and -1, or -1 and the empty slot where
// a new job for ids goes.
func pendingJob(pend []int32, jobs []batchJob, h uint64, ids []schema.SourceID) (job, slot int) {
	mask := uint64(len(pend) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		k := int(pend[i]) - 1
		if k < 0 {
			return -1, int(i)
		}
		if jobs[k].hash == h && slices.Equal(jobs[k].ids, ids) {
			return k, -1
		}
	}
}

// reset empties the memo for its next evaluator and keeps its storage: the
// slot table stays at the size the last solve grew it to.
func (m *memo) reset() {
	clear(m.slots)
	m.entries = m.entries[:0]
	m.ids = m.ids[:0]
}
