package stablelog_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"ickpt/ckpt"
	"ickpt/ckpt/tenant"
	"ickpt/stablelog"
	"ickpt/wire"
)

// dblob is a flat fixed-width payload — the shape payload deltas exist for.
type dblob struct {
	info ckpt.Info
	data []byte
}

var dblobType = ckpt.TypeIDOf("stablelog.dblob")

func (b *dblob) CheckpointInfo() *ckpt.Info    { return &b.info }
func (b *dblob) CheckpointTypeID() ckpt.TypeID { return dblobType }
func (b *dblob) Record(e *wire.Encoder)        { e.BytesField(b.data) }
func (b *dblob) Fold(*ckpt.Writer) error       { return nil }
func (b *dblob) Restore(d *wire.Decoder, _ *ckpt.Resolver) error {
	b.data = append(b.data[:0], d.BytesField()...)
	return nil
}

func dblobRegistry() *ckpt.Registry {
	reg := ckpt.NewRegistry()
	reg.MustRegister("stablelog.dblob", func(id uint64) ckpt.Restorable {
		return &dblob{info: ckpt.RestoredInfo(id)}
	})
	return reg
}

// TestRecoverDeltaChain replays a log whose incrementals carry delta
// records and checks the recovered payloads are byte-identical to the live
// objects: the replay path must materialize each patch against the payload
// the chain established, across several chained epochs.
func TestRecoverDeltaChain(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	d := ckpt.NewDomain()
	rng := rand.New(rand.NewSource(11))
	blobs := make([]*dblob, 4)
	for i := range blobs {
		blobs[i] = &dblob{info: ckpt.NewInfo(d), data: make([]byte, 1024)}
		rng.Read(blobs[i].data)
	}

	wr := ckpt.NewWriter(ckpt.WithDeltaEncoding(0))
	take := func(mode ckpt.Mode) {
		t.Helper()
		wr.Start(mode)
		for _, b := range blobs {
			if err := wr.Checkpoint(b); err != nil {
				t.Fatal(err)
			}
		}
		body, _, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(mode, wr.Epoch(), body); err != nil {
			t.Fatal(err)
		}
	}
	take(ckpt.Full)
	var lastInfo ckpt.BodyInfo
	for epoch := 0; epoch < 3; epoch++ {
		for _, b := range blobs {
			for i := 0; i < 8; i++ {
				b.data[rng.Intn(len(b.data))] ^= byte(1 + rng.Intn(255))
			}
			b.info.Mark()
		}
		take(ckpt.Incremental)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen, recover, and compare against the live population.
	l, err = stablelog.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	last, err := l.Read(l.Segments()[len(l.Segments())-1].Seq)
	if err != nil {
		t.Fatal(err)
	}
	if lastInfo, err = ckpt.InspectBodyKinds(last, nil); err != nil {
		t.Fatal(err)
	}
	if lastInfo.Deltas == 0 {
		t.Fatal("final incremental carries no delta records; fixture broken")
	}

	rb := ckpt.NewRebuilder(dblobRegistry())
	if err := l.Recover(rb); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	objs, err := rb.Build(nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(objs) != len(blobs) {
		t.Fatalf("recovered %d objects, want %d", len(objs), len(blobs))
	}
	for _, b := range blobs {
		got, ok := objs[b.info.ID()].(*dblob)
		if !ok {
			t.Fatalf("object %d missing or wrong type", b.info.ID())
		}
		if !bytes.Equal(got.data, b.data) {
			t.Errorf("object %d: recovered payload differs from live state", b.info.ID())
		}
	}
}

// TestRecoverRejectsVersion2DeltaLog: a log written before delta bases were
// fingerprinted with CRC-32C (delta bodies of version 2) fails recovery as
// a malformed body, not as a base mismatch, and leaves the rebuilder empty.
func TestRecoverRejectsVersion2DeltaLog(t *testing.T) {
	path := tempLogPath(t)
	l, err := stablelog.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer l.Close()
	b := &dblob{info: ckpt.NewInfo(ckpt.NewDomain()), data: make([]byte, 512)}
	wr := ckpt.NewWriter(ckpt.WithDeltaEncoding(0))
	for _, mode := range []ckpt.Mode{ckpt.Full, ckpt.Incremental} {
		b.data[7]++
		b.info.Mark()
		wr.Start(mode)
		if err := wr.Checkpoint(b); err != nil {
			t.Fatal(err)
		}
		body, _, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		old := append([]byte(nil), body...)
		old[0] = 2 // the version byte
		if _, err := l.Append(mode, wr.Epoch(), old); err != nil {
			t.Fatal(err)
		}
	}
	rb := ckpt.NewRebuilder(dblobRegistry())
	err = l.Recover(rb)
	if !errors.Is(err, ckpt.ErrBadBody) || errors.Is(err, ckpt.ErrDeltaBase) {
		t.Fatalf("Recover = %v, want ErrBadBody and not ErrDeltaBase", err)
	}
	if rb.Objects() != 0 {
		t.Fatalf("failed Recover left %d objects in the rebuilder", rb.Objects())
	}
}

// TestRecoverBaselessDeltaIncoherent anchors a delta-bearing incremental to
// a full checkpoint that lacks the patched object. Framing, checksums and
// the segment chain all hold, but the patch has no base — replay must fail
// with ErrIncoherent (wrapping ckpt.ErrDeltaBase) up front rather than
// materialize from nothing, and leave the rebuilder as it was. The tenant
// case hides the base in another tenant's interleaved segment of a shared
// log: a filtered per-tenant run must not borrow it.
func TestRecoverBaselessDeltaIncoherent(t *testing.T) {
	blob := &dblob{info: ckpt.NewInfo(ckpt.NewDomain()), data: bytes.Repeat([]byte{0x5A}, 1024)}
	wr := ckpt.NewWriter(ckpt.WithDeltaEncoding(0))
	take := func(mode ckpt.Mode) ([]byte, uint64) {
		t.Helper()
		wr.Start(mode)
		if err := wr.Checkpoint(blob); err != nil {
			t.Fatal(err)
		}
		body, _, err := wr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), body...), wr.Epoch()
	}
	full, _ := take(ckpt.Full) // establishes the shadow base
	blob.data[100] ^= 0xFF
	blob.info.Mark()
	incr, incrEpoch := take(ckpt.Incremental)

	empty := ckpt.NewWriter()
	empty.Start(ckpt.Full)
	emptyBody, _, err := empty.Finish()
	if err != nil {
		t.Fatal(err)
	}

	type seg struct {
		mode  ckpt.Mode
		epoch uint64
		body  []byte
	}
	cases := []struct {
		name    string
		segs    []seg
		recover func(*stablelog.Log, *ckpt.Rebuilder) error
	}{
		{"log", []seg{
			{ckpt.Full, incrEpoch - 1, emptyBody},
			{ckpt.Incremental, incrEpoch, incr},
		}, (*stablelog.Log).Recover},
		{"tenant", []seg{
			{ckpt.Full, tenant.WireEpoch(1, 1), emptyBody},
			{ckpt.Full, tenant.WireEpoch(2, 1), full},
			{ckpt.Incremental, tenant.WireEpoch(1, 2), incr},
		}, func(l *stablelog.Log, rb *ckpt.Rebuilder) error { return tenant.Recover(l, 1, rb) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tempLogPath(t)
			l, err := stablelog.Create(path)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			for _, s := range tc.segs {
				if _, err := l.Append(s.mode, s.epoch, s.body); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l, err = stablelog.Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer l.Close()
			rb := ckpt.NewRebuilder(dblobRegistry())
			if err := rb.Apply(full); err != nil {
				t.Fatal(err)
			}
			err = tc.recover(l, rb)
			if err == nil {
				t.Fatal("Recover accepted a baseless delta chain")
			}
			if !errors.Is(err, stablelog.ErrIncoherent) || !errors.Is(err, ckpt.ErrDeltaBase) {
				t.Errorf("Recover = %v, want ErrIncoherent wrapping ErrDeltaBase", err)
			}
			if rb.Objects() != 1 {
				t.Errorf("rebuilder holds %d objects after a rejected chain, want its prior 1", rb.Objects())
			}
		})
	}
}
