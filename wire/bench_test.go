package wire

import "testing"

func BenchmarkEncodeUvarint(b *testing.B) {
	e := NewEncoder(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.Len() > 1<<15 {
			e.Reset()
		}
		e.Uvarint(uint64(i))
	}
}

func BenchmarkEncodeRecordPayload(b *testing.B) {
	// A representative Element10 payload: ten varints plus a child id.
	e := NewEncoder(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.Len() > 1<<15 {
			e.Reset()
		}
		for j := 0; j < 10; j++ {
			e.Varint(int64(i + j))
		}
		e.Uvarint(uint64(i))
	}
}

func BenchmarkDecodeRecordPayload(b *testing.B) {
	e := NewEncoder(256)
	for j := 0; j < 10; j++ {
		e.Varint(int64(j * 1000))
	}
	e.Uvarint(424242)
	buf := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		for j := 0; j < 10; j++ {
			d.Varint()
		}
		d.Uvarint()
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}

// encodeBatch is the shard-writer workload both pooled-encoder benchmarks
// share: frame a few hundred small records into the encoder.
func encodeBatch(e *Encoder) {
	for r := 0; r < 256; r++ {
		e.Uvarint(uint64(r))
		for j := 0; j < 4; j++ {
			e.Varint(int64(r * j))
		}
	}
}

// BenchmarkEncoderFresh allocates a new encoder per fold, the pattern the
// pool replaces: every iteration re-grows the buffer from nothing.
func BenchmarkEncoderFresh(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(0)
		encodeBatch(e)
		_ = e.Bytes()
	}
}

// BenchmarkEncoderPooled draws the encoder from the package pool, the way
// parfold workers do (wire.GetEncoder / wire.PutEncoder): after warm-up the
// grown buffer is reused and the loop allocates nothing.
func BenchmarkEncoderPooled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := GetEncoder()
		encodeBatch(e)
		_ = e.Bytes()
		PutEncoder(e)
	}
}

// TestPooledEncoderAllocsZero is the regression guard behind the benchmark
// pair: a steady-state Get/encode/Put cycle must not allocate.
func TestPooledEncoderAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation randomly bypasses sync.Pool caching")
	}
	for i := 0; i < 3; i++ { // warm the pool
		e := GetEncoder()
		encodeBatch(e)
		PutEncoder(e)
	}
	avg := testing.AllocsPerRun(100, func() {
		e := GetEncoder()
		encodeBatch(e)
		PutEncoder(e)
	})
	if avg != 0 {
		t.Fatalf("pooled encoder cycle allocates %v per run, want 0", avg)
	}
}

func BenchmarkEncodeString(b *testing.B) {
	e := NewEncoder(1 << 16)
	s := "a moderately sized string payload"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.Len() > 1<<15 {
			e.Reset()
		}
		e.String(s)
	}
}

// BenchmarkDeltaFingerprint compares fingerprinting a delta's result by
// hashing all of it (full) with carrying the base's fingerprint over the
// literal runs (carried), for a 16 KiB payload with one 64-byte patch.
func BenchmarkDeltaFingerprint(b *testing.B) {
	base := make([]byte, 16<<10)
	for i := range base {
		base[i] = byte(i * 7)
	}
	next := append([]byte(nil), base...)
	for i := 5000; i < 5064; i++ {
		next[i] ^= 0xa5
	}
	var e Encoder
	if !AppendDelta(&e, base, next, len(next)) {
		b.Fatal("encode")
	}
	delta, h := e.Bytes(), DeltaBaseHash(base)
	b.Run("full", func(b *testing.B) {
		b.SetBytes(int64(len(next)))
		for range b.N {
			_ = DeltaBaseHash(next)
		}
	})
	b.Run("carried", func(b *testing.B) {
		b.SetBytes(int64(len(next)))
		for range b.N {
			_, _ = DeltaResultHash(base, h, delta)
		}
	})
}
