// Package sig provides the content-signature idiom shared across the
// repository: an FNV-64a hash accumulated over a sequence of values,
// rendered as a fixed-width hex string. The advisor's request
// signatures are instances -- two inputs hash equal exactly when every
// accumulated value formats equal, so a signature binds derived state
// (a cached result, a drain checkpoint entry) to the exact inputs that
// produced it.
package sig

import (
	"fmt"
	"hash"
	"hash/fnv"
)

// Hash accumulates values into an FNV-64a signature. The zero value is
// not usable; call New.
type Hash struct {
	h hash.Hash64
}

// New returns an empty signature hash.
func New() *Hash {
	return &Hash{h: fnv.New64a()}
}

// Put folds each value into the signature, formatted with %v and
// terminated by '|' so adjacent values cannot collide by
// concatenation ("ab","c" hashes differently from "a","bc").
func (s *Hash) Put(vs ...any) {
	for _, v := range vs {
		fmt.Fprintf(s.h, "%v|", v)
	}
}

// Putf folds one fmt-formatted value into the signature, for callers
// whose fingerprint needs a specific rendering (e.g. "%+v" of a spec
// struct). The same '|' terminator is appended.
func (s *Hash) Putf(format string, args ...any) {
	fmt.Fprintf(s.h, format+"|", args...)
}

// Sum64 returns the accumulated 64-bit signature.
func (s *Hash) Sum64() uint64 { return s.h.Sum64() }

// String renders the signature as 16 lower-case hex digits, the
// on-disk and on-wire form used throughout the repository.
func (s *Hash) String() string { return fmt.Sprintf("%016x", s.h.Sum64()) }

// Of is the one-shot convenience: the signature of the given values.
func Of(vs ...any) string {
	s := New()
	s.Put(vs...)
	return s.String()
}
