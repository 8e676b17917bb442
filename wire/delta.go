// Delta records: the copy/patch opcode stream behind ckpt's sub-object
// delta encoding.
//
// A delta payload re-expresses an object's record payload as edits against
// the payload the same object carried in an earlier checkpoint (its base):
//
//	newLen   uvarint   // length of the materialized payload; equals the
//	                   // base length — deltas are aligned, never resizing
//	baseHash uint32    // DeltaBaseHash (CRC-32C) of the base, little-endian
//	ops                // alternating runs, starting with a copy:
//	                   //   copyLen uvarint                 (take from base)
//	                   //   litLen  uvarint, litLen bytes   (take from delta)
//	                   // until the cursor reaches newLen
//
// Copy runs reference the base at the same offset — runs never move, they
// only skip unchanged bytes — so applying a delta in place over its own base
// is safe: copy runs are the identity and literal runs overwrite. The
// aligned restriction (newLen == baseLen) is what buys that; a payload that
// changes length falls back to a full record at the encoder.
//
// The encoder scans word-at-a-time and only ends a literal run for a match
// of at least minCopyRun bytes, so op framing can never blow up the stream
// on noisy data; an explicit size limit aborts the encode — before copying
// literal bytes — as soon as the delta stops paying for itself.
//
// The base fingerprint is CRC-32C, chosen because it is linear over GF(2):
// for payloads of equal length, crc(a) ⊕ crc(b) = raw(a ⊕ b), where raw is
// the CRC with zero initial state and no final inversion. An aligned delta
// changes its base only inside literal runs, so the fingerprint of the
// result follows from the base's fingerprint and the literal runs alone
// (DeltaResultHash, AppendDeltaHashed): replay and encoding cost time in
// proportion to the bytes a delta changes, not to the payload it lands in.
// Where a delta's runs are so many that carrying over them would cost more
// than one pass over the result (carryRunCost), the result is hashed
// outright instead — the same CRC, computed the direct way.
// The checkpoint body format that carries these deltas is versioned with
// the fingerprint (ckpt body version 3); bodies framed under the earlier
// FNV-based fingerprint are rejected rather than misreported as base
// mismatches.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// Record kinds used by checkpoint streams that carry deltas. KindFull marks
// a record whose payload is the object's complete state; KindDelta marks a
// payload in the delta format above.
const (
	KindFull  byte = 0
	KindDelta byte = 1
)

// ErrBaseMismatch reports a delta validated or applied against a base it was
// not encoded against: the lengths disagree, or the base bytes hash
// differently.
var ErrBaseMismatch = errors.New("wire: delta base mismatch")

// minCopyRun is the shortest match worth ending a literal run for: shorter
// matches cost more in op framing (two uvarints) than they save in bytes.
const minCopyRun = 8

// castagnoli is the CRC-32C table; hash/crc32 computes it with the CPU's
// CRC instructions where they exist.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DeltaBaseHash fingerprints a delta base: the CRC-32C of b.
func DeltaBaseHash(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// rawCRC is the linear part of DeltaBaseHash: the CRC-32C of b from a zero
// state, without the final inversion. rawCRC(a ⊕ b) = rawCRC(a) ⊕ rawCRC(b)
// for equal lengths, and DeltaBaseHash(a) ⊕ DeltaBaseHash(b) = rawCRC(a ⊕ b).
func rawCRC(b []byte) uint32 {
	return ^crc32.Update(^uint32(0), castagnoli, b)
}

// crcExtend advances the raw CRC state s over zeros bytes of zeros and then
// over the bytes lit ⊕ base (equal lengths), without materializing the XOR:
// by linearity that is s's state extended over lit, xor rawCRC(base).
func crcExtend(s uint32, zeros int, lit, base []byte) uint32 {
	s = crcShift(s, zeros)
	return ^crc32.Update(^s, castagnoli, lit) ^ rawCRC(base)
}

// carryRunCost prices carrying a fingerprint over one literal run — a zero
// shift and two short CRC calls — in bytes of contiguous CRC-32C that take
// as long on hardware CRC (~16 B/ns against ~30–50 ns per run). A delta
// whose runs cost more than hashing its whole result is not carried:
// scattered edits make many short runs, and small payloads hash outright
// in less time than one run's carry.
const carryRunCost = 512

// crcShiftTab[m][v] is x^(8·v·256^m) mod P in the reflected bit order of
// the CRC: multiplying a raw CRC state by it appends v·256^m zero bytes.
var crcShiftTab = makeCRCShiftTab()

func makeCRCShiftTab() *[4][256]uint32 {
	var t [4][256]uint32
	one := uint32(1) << 31 // x^0 in reflected order
	x8 := one
	for range 8 {
		x8 = x8>>1 ^ crc32.Castagnoli&-(x8&1)
	}
	step := x8
	for m := range t {
		t[m][0] = one
		for v := 1; v < 256; v++ {
			t[m][v] = gfMul(t[m][v-1], step)
		}
		step = gfMul(t[m][255], step)
	}
	return &t
}

// gfMul multiplies two reflected polynomials modulo the CRC-32C polynomial.
// The loop body is branchless: a data-dependent branch per bit costs more
// than the arithmetic on unpredictable inputs.
func gfMul(a, b uint32) uint32 {
	var p uint32
	for a != 0 {
		p ^= b & -(a >> 31)
		a <<= 1
		b = b>>1 ^ crc32.Castagnoli&-(b&1)
	}
	return p
}

// crcZeros backs crcShift's short shifts: the CRC instructions run over a
// kilobyte of zeros faster than the table multiplies that replace it.
var crcZeros [1024]byte

// crcShift extends the raw CRC state s over k zero bytes: s · x^(8k) mod P.
// Short runs go through the CRC itself; longer ones take one table multiply
// per nonzero byte of k. k must be below 2^32, which the delta format
// guarantees (maxDeltaLen).
func crcShift(s uint32, k int) uint32 {
	if k <= len(crcZeros) {
		return ^crc32.Update(^s, castagnoli, crcZeros[:k])
	}
	for m := 0; k != 0 && s != 0; m++ {
		if v := k & 0xff; v != 0 {
			s = gfMul(s, crcShiftTab[m][v])
		}
		k >>= 8
	}
	return s
}

// maxDeltaLen bounds the payloads deltas cover, keeping every zero run the
// fingerprint carry shifts over within crcShift's four table bytes. Larger
// payloads are always shipped whole.
const maxDeltaLen = math.MaxUint32

// matchLen returns the length of the common prefix of a[i:] and b[i:],
// comparing 8 bytes at a time.
func matchLen(a, b []byte, i int) int {
	n := len(a)
	j := i
	for n-j >= 8 {
		x := binary.LittleEndian.Uint64(a[j:])
		y := binary.LittleEndian.Uint64(b[j:])
		if x != y {
			return j - i + bits.TrailingZeros64(x^y)/8
		}
		j += 8
	}
	for j < n && a[j] == b[j] {
		j++
	}
	return j - i
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// AppendDelta encodes next as a delta against base and appends it to e,
// reporting success. It fails — leaving e untouched — when the lengths
// differ (deltas are aligned) or when the delta would exceed limit bytes:
// past that point shipping the full payload is cheaper than the opcode
// stream plus the apply cost. The scan aborts before copying literal bytes
// once the projected size crosses the limit, so a 100%-churned payload costs
// one comparison sweep, not a wasted encode.
func AppendDelta(e *Encoder, base, next []byte, limit int) bool {
	_, ok := AppendDeltaHashed(e, base, DeltaBaseHash(base), next, limit)
	return ok
}

// AppendDeltaHashed is AppendDelta with the base hash precomputed — shadow
// caches store the hash beside the payload so steady-state encoding never
// rehashes an unchanged base. On success it also returns DeltaBaseHash(next),
// carried forward from baseHash over the literal runs rather than computed
// over all of next (baseHash must therefore be the true hash of base) —
// unless the runs are so many that one pass over next is cheaper.
func AppendDeltaHashed(e *Encoder, base []byte, baseHash uint32, next []byte, limit int) (uint32, bool) {
	n := len(next)
	if len(base) != n || uint64(n) > maxDeltaLen {
		return 0, false
	}
	start := e.Len()
	e.Uvarint(uint64(n))
	e.Uint32(baseHash)
	i, runs := 0, 0
	for i < n {
		c := matchLen(base, next, i)
		e.Uvarint(uint64(c))
		i += c
		if i == n {
			break
		}
		// Literal run: extend until a match of at least minCopyRun bytes
		// begins (or one that runs to the end of the payload, however
		// short — the tail costs one op either way).
		lit := i + 1
		for lit < n {
			if n-lit >= 8 {
				// Word-wise fast path. A differing byte at offset d within
				// the word breaks every candidate match starting at or
				// before it (minCopyRun == 8 == the word width), so the run
				// can jump past the word's last differing byte in one step;
				// a fully equal word is a match of at least minCopyRun
				// starting right here. Byte-for-byte identical output to
				// the scalar loop below, which only runs for the tail.
				x := binary.LittleEndian.Uint64(next[lit:])
				y := binary.LittleEndian.Uint64(base[lit:])
				if d := x ^ y; d != 0 {
					lit += 8 - bits.LeadingZeros64(d)/8
					if lit-i > limit {
						e.Truncate(start)
						return 0, false
					}
					continue
				}
				break
			}
			if next[lit] != base[lit] {
				lit++
				if lit-i > limit {
					e.Truncate(start)
					return 0, false
				}
				continue
			}
			m := matchLen(base, next, lit)
			if m >= minCopyRun || lit+m == n {
				break
			}
			lit += m
		}
		litLen := lit - i
		if e.Len()-start+uvarintLen(uint64(litLen))+litLen > limit {
			e.Truncate(start)
			return 0, false
		}
		e.Uvarint(uint64(litLen))
		e.Raw(next[i:lit])
		i = lit
		runs++
	}
	if e.Len()-start > limit {
		e.Truncate(start)
		return 0, false
	}
	if runs > n/carryRunCost {
		return DeltaBaseHash(next), true
	}
	h, _ := carryHash(base, baseHash, e.Bytes()[start:], n)
	return h, true
}

// DeltaLen returns the materialized payload length a delta declares, without
// validating the op stream. Inspection tools use it to report raw vs encoded
// bytes on real logs.
func DeltaLen(delta []byte) (int, error) {
	v, n := binary.Uvarint(delta)
	if n <= 0 {
		return 0, fmt.Errorf("%w: delta length prefix", ErrMalformed)
	}
	return int(v), nil
}

// ValidateDelta checks delta structurally and against a base of the given
// length and hash: the declared length must equal baseLen (aligned deltas
// never resize), the embedded hash must match baseHash, every op must be
// in bounds, and the runs must sum to exactly the declared length. It
// returns the materialized payload length. After a nil error,
// ApplyValidatedDelta on a base of that length cannot fail.
func ValidateDelta(delta []byte, baseLen int, baseHash uint32) (int, error) {
	d := NewDecoder(delta)
	n := int(d.Uvarint())
	h := d.Uint32()
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("delta header: %w", err)
	}
	if n != baseLen {
		return 0, fmt.Errorf("%w: delta for %d bytes, base has %d", ErrBaseMismatch, n, baseLen)
	}
	if uint64(n) > maxDeltaLen {
		return 0, fmt.Errorf("%w: delta for %d bytes exceeds the format limit", ErrMalformed, n)
	}
	if h != baseHash {
		return 0, fmt.Errorf("%w: base hash %#08x, want %#08x", ErrBaseMismatch, baseHash, h)
	}
	i := 0
	for i < n {
		c := d.Uvarint()
		if d.Err() != nil || c > uint64(n-i) {
			return 0, fmt.Errorf("%w: delta copy run", ErrMalformed)
		}
		i += int(c)
		if i == n {
			break
		}
		l := d.Uvarint()
		if d.Err() != nil || l == 0 || l > uint64(n-i) {
			return 0, fmt.Errorf("%w: delta literal run", ErrMalformed)
		}
		d.Skip(int(l))
		if d.Err() != nil {
			return 0, fmt.Errorf("%w: delta literal run", ErrTruncated)
		}
		i += int(l)
	}
	if d.Len() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after delta ops", ErrMalformed, d.Len())
	}
	return n, nil
}

// ApplyValidatedDelta materializes a delta that ValidateDelta has already
// accepted for this base length, writing the result into dst (which must
// have the validated length). dst may be base itself: copy runs are the
// identity in place and literal runs overwrite, so in-place materialization
// is safe and allocation-free.
func ApplyValidatedDelta(dst, base, delta []byte) {
	d := NewDecoder(delta)
	n := int(d.Uvarint())
	_ = d.Uint32()
	i := 0
	for i < n {
		c := int(d.Uvarint())
		if &dst[0] != &base[0] {
			copy(dst[i:i+c], base[i:i+c])
		}
		i += c
		if i == n {
			break
		}
		l := int(d.Uvarint())
		copy(dst[i:i+l], d.Raw(l))
		i += l
	}
}

// DeltaResultHash returns DeltaBaseHash of the payload that applying delta
// to base materializes, given baseHash = DeltaBaseHash(base). The delta must
// have been validated against base (ValidateDelta), and base must not yet be
// overwritten: the result's fingerprint is carried over the literal runs —
// reading only the literal bytes and the base bytes beneath them — so its
// cost follows the bytes the delta changes, not the payload's length. When
// the runs are so many that hashing the materialized result is cheaper,
// DeltaResultHash gives up (ok is false) after at most that much work, and
// the caller hashes the result once it exists.
func DeltaResultHash(base []byte, baseHash uint32, delta []byte) (hash uint32, ok bool) {
	return carryHash(base, baseHash, delta, len(base))
}

// carryHash carries baseHash over delta's literal runs (see
// DeltaResultHash), giving up once the runs cost more than hashing budget
// contiguous bytes.
func carryHash(base []byte, baseHash uint32, delta []byte, budget int) (uint32, bool) {
	d := NewDecoder(delta)
	n := int(d.Uvarint())
	_ = d.Uint32()
	var diff uint32 // raw CRC of base ⊕ result over [0, i)
	i, runs := 0, 0
	for i < n {
		c := int(d.Uvarint())
		i += c
		if i == n {
			diff = crcShift(diff, c)
			break
		}
		if runs++; runs > budget/carryRunCost {
			return 0, false
		}
		l := int(d.Uvarint())
		diff = crcExtend(diff, c, d.Raw(l), base[i:i+l])
		i += l
	}
	return baseHash ^ diff, true
}

// ApplyDelta validates delta against base and returns the materialized
// payload in a fresh buffer. A delta encoded for a different base — wrong
// length or different bytes — fails with ErrBaseMismatch.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	n, err := ValidateDelta(delta, len(base), DeltaBaseHash(base))
	if err != nil {
		return nil, err
	}
	dst := make([]byte, n)
	if n > 0 {
		ApplyValidatedDelta(dst, base, delta)
	}
	return dst, nil
}
