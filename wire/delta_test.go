package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// mutate returns a copy of base with frac of its bytes changed, in runs of
// up to 16, deterministically from seed.
func mutate(base []byte, frac float64, seed int64) []byte {
	next := append([]byte(nil), base...)
	rng := rand.New(rand.NewSource(seed))
	want := int(float64(len(base)) * frac)
	for changed := 0; changed < want; {
		i := rng.Intn(len(next))
		run := 1 + rng.Intn(16)
		for j := 0; j < run && i+j < len(next) && changed < want; j++ {
			next[i+j] ^= byte(1 + rng.Intn(255))
			changed++
		}
	}
	return next
}

func TestDeltaRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 7, 8, 64, 256, 4096} {
		base := make([]byte, size)
		rng := rand.New(rand.NewSource(int64(size)))
		rng.Read(base)
		for _, frac := range []float64{0, 0.01, 0.1, 0.5} {
			next := base
			if frac > 0 {
				next = mutate(base, frac, int64(size)+7)
			}
			var e Encoder
			carried, ok := AppendDeltaHashed(&e, base, DeltaBaseHash(base), next, len(next))
			if !ok {
				if size >= 64 && frac <= 0.1 {
					t.Errorf("size %d frac %g: delta did not fit in full payload size", size, frac)
				}
				continue
			}
			checkCarried(t, base, next, e.Bytes(), carried)
			got, err := ApplyDelta(base, e.Bytes())
			if err != nil {
				t.Fatalf("size %d frac %g: apply: %v", size, frac, err)
			}
			if !bytes.Equal(got, next) {
				t.Fatalf("size %d frac %g: apply mismatch", size, frac)
			}
			// In-place apply over the base must produce the same bytes.
			inPlace := append([]byte(nil), base...)
			if _, err := ValidateDelta(e.Bytes(), len(inPlace), DeltaBaseHash(inPlace)); err != nil {
				t.Fatalf("validate: %v", err)
			}
			if size > 0 {
				ApplyValidatedDelta(inPlace, inPlace, e.Bytes())
				if !bytes.Equal(inPlace, next) {
					t.Fatalf("size %d frac %g: in-place apply mismatch", size, frac)
				}
			}
		}
	}
}

func TestDeltaLimitAborts(t *testing.T) {
	base := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(base)
	next := mutate(base, 1.0, 2)
	var e Encoder
	e.Uvarint(42) // pre-existing content the abort must preserve
	before := append([]byte(nil), e.Bytes()...)
	if AppendDelta(&e, base, next, len(next)*3/4) {
		t.Fatal("fully-churned payload produced a delta under 3/4 of its size")
	}
	if !bytes.Equal(e.Bytes(), before) {
		t.Fatal("aborted AppendDelta left bytes behind")
	}
}

func TestDeltaSmallChangeIsSmall(t *testing.T) {
	base := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(base)
	next := append([]byte(nil), base...)
	next[100] ^= 0xff
	next[3000] ^= 0x01
	var e Encoder
	if !AppendDelta(&e, base, next, len(next)*3/4) {
		t.Fatal("two-byte change did not delta")
	}
	if e.Len() > 64 {
		t.Fatalf("two-byte change encoded to %d bytes", e.Len())
	}
}

func TestDeltaLengthMismatch(t *testing.T) {
	base := []byte("0123456789abcdef")
	var e Encoder
	if AppendDelta(&e, base, base[:8], len(base)) {
		t.Fatal("length-changing delta was encoded")
	}
	if !AppendDelta(&e, base, base, len(base)) {
		t.Fatal("identity delta did not encode")
	}
	if _, err := ApplyDelta(base[:8], e.Bytes()); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("apply onto short base: got %v, want ErrBaseMismatch", err)
	}
	wrong := append([]byte(nil), base...)
	wrong[0] ^= 0xff
	if _, err := ApplyDelta(wrong, e.Bytes()); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("apply onto altered base: got %v, want ErrBaseMismatch", err)
	}
}

func TestValidateDeltaRejectsGarbage(t *testing.T) {
	base := make([]byte, 64)
	next := mutate(base, 0.2, 4)
	var e Encoder
	if !AppendDelta(&e, base, next, len(next)) {
		t.Fatal("encode")
	}
	good := e.Bytes()
	if _, err := ValidateDelta(good[:len(good)-1], len(base), DeltaBaseHash(base)); err == nil {
		t.Fatal("truncated delta validated")
	}
	bad := append([]byte(nil), good...)
	bad = append(bad, 0x01) // trailing garbage op
	if _, err := ValidateDelta(bad, len(base), DeltaBaseHash(base)); err == nil {
		t.Fatal("delta with trailing bytes validated")
	}
	if _, err := ValidateDelta(nil, len(base), DeltaBaseHash(base)); err == nil {
		t.Fatal("empty delta validated")
	}
}

// checkCarried asserts that every fingerprint of a delta's result — the
// encoder's, DeltaResultHash's when it carries, and the carry run without
// a cost budget, so the carry arithmetic is checked on payloads of any
// size — equals a fresh hash of next. It reports whether DeltaResultHash
// carried.
func checkCarried(t *testing.T, base, next, delta []byte, carried uint32) bool {
	t.Helper()
	want := DeltaBaseHash(next)
	if carried != want {
		t.Fatalf("encoder fingerprint %#08x, DeltaBaseHash(next) = %#08x", carried, want)
	}
	if got, _ := carryHash(base, DeltaBaseHash(base), delta, math.MaxInt); got != want {
		t.Fatalf("unbudgeted carry = %#08x, DeltaBaseHash(next) = %#08x", got, want)
	}
	got, ok := DeltaResultHash(base, DeltaBaseHash(base), delta)
	if ok && got != want {
		t.Fatalf("DeltaResultHash = %#08x, DeltaBaseHash(next) = %#08x", got, want)
	}
	return ok
}

// TestDeltaCarriedFingerprintRuns pins the carry at the edges of the
// payload: a literal run at offset 0, one ending at the tail, one covering
// the whole payload, runs separated by copy runs long enough to need the
// table multiplies, and the empty payload. Scattered edits — more runs than
// carrying pays for — must still yield the exact fingerprint from the
// encoder, while DeltaResultHash declines.
func TestDeltaCarriedFingerprintRuns(t *testing.T) {
	flip := func(b []byte, from, to int) []byte {
		out := append([]byte(nil), b...)
		for i := from; i < to; i++ {
			out[i] ^= 0x5a
		}
		return out
	}
	big := make([]byte, 1<<17+300)
	rand.New(rand.NewSource(9)).Read(big)
	bigNext := flip(flip(flip(big, 0, 3), 70000, 70010), len(big)-5, len(big))
	page := make([]byte, 4096)
	rand.New(rand.NewSource(10)).Read(page)
	scattered := append([]byte(nil), big[:8192]...)
	for i := 0; i < len(scattered); i += 32 {
		scattered[i] ^= 1
	}
	cases := []struct {
		name       string
		base, next []byte
		carries    bool
	}{
		{"empty", nil, nil, true},
		{"identity", page, page, true},
		{"head", page, flip(page, 0, 4), true},
		{"tail", page, flip(page, 4090, 4096), true},
		{"whole", page, flip(page, 0, 4096), true},
		{"one-byte", page[:1], flip(page[:1], 0, 1), false},
		{"far-apart", big, bigNext, true},
		{"scattered", big[:8192], scattered, false},
	}
	for _, tc := range cases {
		var e Encoder
		carried, ok := AppendDeltaHashed(&e, tc.base, DeltaBaseHash(tc.base), tc.next, len(tc.next)+16)
		if !ok {
			t.Fatalf("%s: delta did not encode", tc.name)
		}
		if got := checkCarried(t, tc.base, tc.next, e.Bytes(), carried); got != tc.carries {
			t.Fatalf("%s: DeltaResultHash carried = %v, want %v", tc.name, got, tc.carries)
		}
	}
}

// TestCRCShiftMatchesZeros checks the zero-run shift against hashing real
// zero bytes, across lengths that exercise each table byte.
func TestCRCShiftMatchesZeros(t *testing.T) {
	zeros := make([]byte, 1<<17+3)
	for _, k := range []int{0, 1, 7, 1024, 1025, 65535, 65536, 1<<17 + 3} {
		for _, s := range []uint32{1, 0xdeadbeef, 1 << 31} {
			want := ^crc32.Update(^s, castagnoli, zeros[:k])
			if got := crcShift(s, k); got != want {
				t.Fatalf("crcShift(%#x, %d) = %#x, want %#x", s, k, got, want)
			}
		}
	}
}

// FuzzDeltaRoundTrip: for random base/next pairs of equal length,
// encode-delta followed by apply reproduces next exactly, the fingerprint
// carried over the literal runs equals a fresh hash of next, and applying
// onto a base of the wrong length errors cleanly instead of corrupting or
// panicking.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte("0123456789abcdef0123"), []byte("X123456789abcdef0123"), uint8(0))
	f.Add([]byte("0123456789abcdef0123"), []byte("0123456789abcdef012X"), uint8(2))
	f.Add([]byte("0123456789abcdef0123"), []byte("ABCDEFGHIJKLMNOPQRST"), uint8(5))
	f.Add([]byte("hello world, hello world"), []byte("helloворлд, hello world"), uint8(1))
	f.Add(bytes.Repeat([]byte{0xaa}, 512), bytes.Repeat([]byte{0xaa}, 512), uint8(9))
	seed := make([]byte, 256)
	rand.New(rand.NewSource(5)).Read(seed)
	f.Add(seed, mutate(seed, 0.05, 6), uint8(3))
	f.Fuzz(func(t *testing.T, base, next []byte, chop uint8) {
		if len(next) > len(base) {
			next = next[:len(base)]
		} else {
			next = append(next, base[len(next):]...)
		}
		var e Encoder
		carried, ok := AppendDeltaHashed(&e, base, DeltaBaseHash(base), next, len(next)+16)
		if !ok {
			return // over limit: encoder fell back, nothing to check
		}
		checkCarried(t, base, next, e.Bytes(), carried)
		got, err := ApplyDelta(base, e.Bytes())
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if !bytes.Equal(got, next) {
			t.Fatalf("round trip mismatch: %x -> %x, got %x", base, next, got)
		}
		// Wrong-length bases must fail validation, never misapply.
		short := base[:len(base)-int(chop)%(len(base)+1)]
		if len(short) != len(base) {
			if _, err := ApplyDelta(short, e.Bytes()); !errors.Is(err, ErrBaseMismatch) {
				t.Fatalf("apply onto %d-byte base of %d-byte delta: %v", len(short), len(base), err)
			}
		}
	})
}
