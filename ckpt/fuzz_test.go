package ckpt_test

import (
	"testing"

	"ickpt/ckpt"
	"ickpt/internal/difftest"
	"ickpt/internal/synth"
)

// seedCorpus feeds every checkpoint body from the standard difftest traces
// into the fuzzer, so mutation starts from structurally valid bodies across
// all four engines and three workloads.
func seedCorpus(f *testing.F) [][]byte {
	bodies, err := difftest.SeedBodies()
	if err != nil {
		f.Fatalf("seed corpus: %v", err)
	}
	for _, b := range bodies {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	return bodies
}

// FuzzInspectBody drives the body decoder over arbitrary bytes: it must
// return an error or a consistent BodyInfo, never panic or over-read.
func FuzzInspectBody(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		records := 0
		info, err := ckpt.InspectBody(body, func(id uint64, tid ckpt.TypeID, payload []byte) error {
			records++
			return nil
		})
		if err != nil {
			return
		}
		if info.Records != records {
			t.Fatalf("info.Records = %d, callback saw %d", info.Records, records)
		}
	})
}

// FuzzRebuilderApply applies a known-good full base body and then an
// arbitrary body: Apply must either reject the body (leaving state intact,
// so Build still succeeds) or accept it with Build never panicking. Bodies
// in the delta format start from the corpus's first delta-format full body,
// so mutated deltas meet the bases they were encoded against. Either way,
// every fingerprint the rebuilder carries must equal a fresh hash of its
// payload.
func FuzzRebuilderApply(f *testing.F) {
	bodies := seedCorpus(f)
	base := bodies[0] // base full checkpoint of the first synth trace
	var deltaBase []byte
	for _, b := range bodies {
		if info, err := ckpt.InspectBody(b, nil); err == nil && info.Version == 3 && info.Mode == ckpt.Full {
			deltaBase = b
			break
		}
	}
	if deltaBase == nil {
		f.Fatal("seed corpus has no delta-format full body")
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rb := ckpt.NewRebuilder(synth.Registry())
		start := base
		if len(body) > 0 && body[0] == 3 {
			start = deltaBase
		}
		if err := rb.Apply(start); err != nil {
			t.Fatalf("base body rejected: %v", err)
		}
		err := rb.Apply(body)
		if ferr := ckpt.CheckRebuilderFingerprints(rb); ferr != nil {
			t.Fatalf("Apply (err %v) left a drifted fingerprint: %v", err, ferr)
		}
		if err != nil {
			// Apply is documented atomic: the base state must survive.
			if _, err := rb.Build(ckpt.NewDomain()); err != nil {
				t.Fatalf("failed Apply corrupted rebuilder state: %v", err)
			}
			return
		}
		// Accepted bodies may still reference unknown types or dangling
		// ids; Build may error but must not panic.
		_, _ = rb.Build(ckpt.NewDomain())
	})
}
