// Package minhash implements MinHash signatures over attribute value sets —
// the synopsis behind µBE's *data-based* attribute similarity (§3 allows
// "any attribute similarity measure, whether it is schema based or data
// based"). Two attributes whose value sets overlap heavily are likely the
// same concept even when their names share nothing (a source that renamed
// its "author" field still serves author values).
//
// The implementation is one-permutation hashing (OPH): a single hash routes
// each value to one of k buckets, which keeps that bucket's minimum hash.
// Insertion is O(1) — cheap enough to sketch every attribute of every source
// in one data pass — and the fraction of agreeing non-empty buckets
// estimates the Jaccard similarity of the underlying value sets. Taking the
// element-wise minimum of two signatures yields the signature of the union —
// the same cooperation model as the PCSA cardinality signatures: sources
// compute them in one pass and µBE caches them.
package minhash

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Signature is a k-permutation MinHash synopsis. The zero value is unusable;
// construct with New.
type Signature struct {
	seed uint64
	mins []uint64
}

// DefaultK is the default signature width: 128 slots give a standard error
// of ≈ 1/√128 ≈ 9% on Jaccard estimates at 1 KiB per attribute.
const DefaultK = 128

// New returns an empty signature with k slots under the given seed. All
// signatures that are compared or merged must share k and seed.
func New(k int, seed uint64) (*Signature, error) {
	if k <= 0 {
		return nil, fmt.Errorf("minhash: k must be positive, got %d", k)
	}
	s := &Signature{seed: seed, mins: make([]uint64, k)}
	for i := range s.mins {
		s.mins[i] = ^uint64(0)
	}
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(k int, seed uint64) *Signature {
	s, err := New(k, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// K returns the signature width.
func (s *Signature) K() int { return len(s.mins) }

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AddUint64 inserts a value identified by x. O(1): the value's hash selects
// one bucket and updates its minimum.
func (s *Signature) AddUint64(x uint64) {
	h := mix(x ^ mix(s.seed))
	b := h % uint64(len(s.mins))
	if h < s.mins[b] {
		s.mins[b] = h
	}
}

// AddString inserts a string value (FNV-1a folded).
func (s *Signature) AddString(v string) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= prime
	}
	s.AddUint64(h)
}

// Empty reports whether no value has been inserted.
func (s *Signature) Empty() bool {
	for _, m := range s.mins {
		if m != ^uint64(0) {
			return false
		}
	}
	return true
}

// ErrIncompatible is returned when comparing or merging signatures of
// different shape or seed.
var ErrIncompatible = errors.New("minhash: incompatible signatures")

// Jaccard estimates the Jaccard similarity of the two underlying value sets:
// the fraction of agreeing buckets among buckets that are non-empty in at
// least one signature (the empty-aware OPH estimator, which stays unbiased
// for value sets smaller than k). Two empty signatures estimate 0.
func (s *Signature) Jaccard(o *Signature) (float64, error) {
	if len(s.mins) != len(o.mins) || s.seed != o.seed {
		return 0, ErrIncompatible
	}
	const empty = ^uint64(0)
	eq, occupied := 0, 0
	for i := range s.mins {
		a, b := s.mins[i], o.mins[i]
		if a == empty && b == empty {
			continue
		}
		occupied++
		if a == b {
			eq++
		}
	}
	if occupied == 0 {
		return 0, nil
	}
	return float64(eq) / float64(occupied), nil
}

// MergeFrom folds o into s, making s the signature of the union of the two
// value sets.
func (s *Signature) MergeFrom(o *Signature) error {
	if len(s.mins) != len(o.mins) || s.seed != o.seed {
		return ErrIncompatible
	}
	for i, m := range o.mins {
		if m < s.mins[i] {
			s.mins[i] = m
		}
	}
	return nil
}

// Clone returns a deep copy.
func (s *Signature) Clone() *Signature {
	c := &Signature{seed: s.seed, mins: make([]uint64, len(s.mins))}
	copy(c.mins, s.mins)
	return c
}

// magic identifies the binary encoding.
const magic = 0x4d484153 // "MHAS"

// MarshalBinary encodes the signature for caching or transmission.
func (s *Signature) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, 4+4+8+8*len(s.mins)))
}

// AppendBinary appends the signature's binary encoding to buf and returns the
// extended slice, so bulk serialization can reuse one buffer across
// signatures.
func (s *Signature) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.mins)))
	buf = binary.LittleEndian.AppendUint64(buf, s.seed)
	for _, m := range s.mins {
		buf = binary.LittleEndian.AppendUint64(buf, m)
	}
	return buf, nil
}

// UnmarshalBinary decodes a signature written by MarshalBinary.
func (s *Signature) UnmarshalBinary(data []byte) error {
	if len(data) < 16 || binary.LittleEndian.Uint32(data[0:]) != magic {
		return errors.New("minhash: bad signature encoding")
	}
	k := int(binary.LittleEndian.Uint32(data[4:]))
	if k <= 0 || len(data) != 16+8*k {
		return errors.New("minhash: truncated signature")
	}
	s.seed = binary.LittleEndian.Uint64(data[8:])
	s.mins = make([]uint64, k)
	for i := range s.mins {
		s.mins[i] = binary.LittleEndian.Uint64(data[16+8*i:])
	}
	return nil
}
