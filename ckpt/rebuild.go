package ckpt

import (
	"errors"
	"fmt"
	"slices"

	"ickpt/wire"
)

// latestRec is the most recent payload known for one object id. owned marks
// a rebuilder-owned buffer (delta-body records are materialized into owned
// storage rather than aliasing the body), which a later same-size record may
// reuse in place instead of allocating.
//
// hash is the payload's wire.DeltaBaseHash when hashed is set. A delta's
// result carries its fingerprint forward from its base's
// (wire.DeltaResultHash); a full record — or the result of a delta too
// scattered to carry — is fingerprinted lazily, the first time a delta
// needs it as a base, so records no delta ever references — every
// version-1 body, and sub-floor records in delta bodies — never pay for a
// hash.
type latestRec struct {
	typeID  TypeID
	payload []byte
	owned   bool
	hashed  bool
	hash    uint32
}

// stagedRec is one record staged during Apply's validation pass. payload
// aliases the body (the delta bytes, for kind wire.KindDelta) unless mat is
// set; base is the resolved diff base a delta was validated against, and
// hash the fingerprint of the delta's result. superseded marks a record a
// later record for the same id in the same body replaces.
type stagedRec struct {
	id         uint64
	typeID     TypeID
	kind       byte
	payload    []byte
	base       []byte
	mat        bool // payload is an already-materialized owned buffer
	hashed     bool
	hash       uint32
	superseded bool
}

// fingerprint returns the payload's wire.DeltaBaseHash, computing it unless
// it is already known.
func (st *stagedRec) fingerprint() uint32 {
	if !st.hashed {
		st.hash, st.hashed = wire.DeltaBaseHash(st.payload), true
	}
	return st.hash
}

// Rebuilder reconstructs object state from a sequence of checkpoint bodies:
// one base full checkpoint followed by any number of incremental bodies, in
// the order they were taken. It keeps, per object id, the most recent record
// payload — materializing delta records (wire.KindDelta) against it as they
// arrive; Build then materializes the object graph through a Registry.
//
// Rebuilder is not safe for concurrent use.
type Rebuilder struct {
	reg    *Registry
	latest map[uint64]latestRec
	bodies [][]byte // retained so version-1 record payloads stay valid
	maxID  uint64
	seen   int // bodies applied

	// staged and index are Apply's validation-pass scratch: the body's
	// records in order, and each id's newest position among them. Both
	// are retained across calls so the steady-state re-apply loop (a
	// replica following a stream) stays allocation-free, and both cost
	// per body in proportion to the records it holds, however large an
	// earlier body grew them.
	staged []stagedRec
	index  stageIndex
}

// NewRebuilder returns a Rebuilder resolving types through reg.
func NewRebuilder(reg *Registry) *Rebuilder {
	return &Rebuilder{
		reg:    reg,
		latest: make(map[uint64]latestRec),
	}
}

// Apply folds one checkpoint body into the rebuilder. A version-1 body is
// retained (not copied) — its record payloads are aliased and it must not be
// mutated afterwards. Delta-enabled bodies (version 3) are not retained:
// every record, full or delta, is materialized into rebuilder-owned storage,
// reusing the object's previous buffer when the new payload fits.
//
// A Full body resets the state: objects absent from a full checkpoint are
// dead and must not resurface from older incrementals. The first body
// applied must be Full. A delta record must follow an earlier payload for
// the same object — in this body or a previous one — or Apply fails with
// ErrDeltaBase; a delta whose base hash disagrees with the fingerprint of
// that payload fails the same way rather than materializing corrupt state.
//
// Apply is atomic: a body that fails to parse or validate leaves the
// rebuilder exactly as it was, so recovery can skip a corrupt body (or a
// body that a transient read error garbled) and continue from intact state.
func (rb *Rebuilder) Apply(body []byte) error {
	d := wire.NewDecoder(body)
	h, err := parseBodyHeader(d)
	if err != nil {
		return fmt.Errorf("apply body: %w", err)
	}
	if rb.seen == 0 && h.mode != Full {
		return fmt.Errorf("%w: first body must be a full checkpoint", ErrBadBody)
	}
	hasKind := h.version == bodyVersionDelta
	// Decode and validate every record before touching any state. Deltas
	// are fully validated here — structure, base length, base hash — so the
	// commit loop below cannot fail, which is what makes its in-place
	// materialization safe.
	rb.index.next()
	defer rb.dropStaged() // drop body aliases either way
	for {
		rec, ok, err := nextRecord(d, hasKind)
		if err != nil {
			return fmt.Errorf("apply body: %w", err)
		}
		if !ok {
			break
		}
		if rec.id == NilID {
			return fmt.Errorf("%w: record with nil id", ErrBadBody)
		}
		var prev *stagedRec
		if at := rb.index.find(rec.id); at >= 0 {
			prev = &rb.staged[at]
		}
		var cur latestRec
		haveCur := false
		if prev == nil && h.mode != Full {
			// A full body resets the state, so conflicts against the old
			// generation do not apply.
			cur, haveCur = rb.latest[rec.id]
		}
		if prev != nil && prev.typeID != rec.typeID || haveCur && cur.typeID != rec.typeID {
			prevType := cur.typeID
			if prev != nil {
				prevType = prev.typeID
			}
			return fmt.Errorf("%w: object %d recorded as %q then %q",
				ErrTypeConflict, rec.id, rb.reg.Name(prevType), rb.reg.Name(rec.typeID))
		}
		st := stagedRec{id: rec.id, typeID: rec.typeID, kind: rec.kind, payload: rec.payload}
		if rec.kind == wire.KindDelta {
			if h.mode == Full {
				return fmt.Errorf("%w: object %d: delta record in a full checkpoint", ErrDeltaBase, rec.id)
			}
			var base []byte
			var baseHash uint32
			switch {
			case prev != nil:
				if prev.kind == wire.KindDelta && !prev.mat {
					// Two deltas for one object in one body: materialize
					// the first so the second has bytes to apply to; its
					// carried fingerprint comes along.
					buf := make([]byte, len(prev.base))
					wire.ApplyValidatedDelta(buf, prev.base, prev.payload)
					prev.kind, prev.payload, prev.base, prev.mat = wire.KindFull, buf, nil, true
				}
				base, baseHash = prev.payload, prev.fingerprint()
			case haveCur:
				base, baseHash = cur.payload, cur.hash
				if !cur.hashed {
					baseHash = wire.DeltaBaseHash(base)
				}
			default:
				return fmt.Errorf("%w: object %d has no earlier payload in the stream", ErrDeltaBase, rec.id)
			}
			if _, err := wire.ValidateDelta(rec.payload, len(base), baseHash); err != nil {
				if errors.Is(err, wire.ErrBaseMismatch) {
					return fmt.Errorf("%w: object %d: %v", ErrDeltaBase, rec.id, err)
				}
				return fmt.Errorf("%w: object %d: %v", ErrBadBody, rec.id, err)
			}
			st.base = base
			// A delta too scattered to carry leaves its result unhashed,
			// to be hashed lazily like a full record.
			st.hash, st.hashed = wire.DeltaResultHash(base, baseHash, rec.payload)
		}
		if prev != nil {
			prev.superseded = true
		}
		rb.index.set(rec.id, len(rb.staged))
		rb.staged = append(rb.staged, st)
	}
	// Commit.
	if h.mode == Full {
		clear(rb.latest)
		rb.bodies = rb.bodies[:0]
		rb.maxID = 0
	}
	if !hasKind {
		rb.bodies = append(rb.bodies, body)
	}
	for i := range rb.staged {
		st := &rb.staged[i]
		if st.superseded {
			continue
		}
		rb.latest[st.id] = rb.commitRecord(st, hasKind)
		if st.id > rb.maxID {
			rb.maxID = st.id
		}
	}
	rb.seen++
	return nil
}

// dropStaged empties Apply's record scratch, clearing the used prefix so no
// body aliases outlive the call.
func (rb *Rebuilder) dropStaged() {
	clear(rb.staged)
	rb.staged = rb.staged[:0]
}

// commitRecord turns a validated staged record into the object's latest
// payload. Version-1 records alias the retained body; delta-body records
// are materialized into owned storage, reusing the object's existing owned
// buffer whenever the new payload fits its capacity — the steady-state
// same-size re-apply allocates nothing.
func (rb *Rebuilder) commitRecord(st *stagedRec, hasKind bool) latestRec {
	if !hasKind {
		return latestRec{typeID: st.typeID, payload: st.payload}
	}
	if st.mat {
		return latestRec{typeID: st.typeID, payload: st.payload, owned: true, hashed: st.hashed, hash: st.hash}
	}
	cur, exists := rb.latest[st.id]
	if st.kind == wire.KindDelta {
		n := len(st.base)
		var dst []byte
		if exists && cur.owned && cap(cur.payload) >= n {
			dst = cur.payload[:n]
		} else {
			dst = make([]byte, n)
		}
		if n > 0 {
			// dst may be st.base itself (the common consecutive-epoch
			// case); in-place application is safe because aligned deltas
			// only overwrite literal runs.
			wire.ApplyValidatedDelta(dst, st.base, st.payload)
		}
		return latestRec{typeID: st.typeID, payload: dst, owned: true, hashed: st.hashed, hash: st.hash}
	}
	n := len(st.payload)
	var dst []byte
	if exists && cur.owned && cap(cur.payload) >= n {
		dst = cur.payload[:n]
	} else {
		dst = make([]byte, n)
	}
	copy(dst, st.payload)
	return latestRec{typeID: st.typeID, payload: dst, owned: true, hashed: st.hashed, hash: st.hash}
}

// checkFingerprints reports the first object whose carried fingerprint
// differs from a fresh hash of its payload. It backs the tests' invariant
// that carrying a fingerprint through deltas never drifts from hashing.
func (rb *Rebuilder) checkFingerprints() error {
	for id, rec := range rb.latest {
		if rec.hashed && rec.hash != wire.DeltaBaseHash(rec.payload) {
			return fmt.Errorf("object %d: carried fingerprint %#08x, payload hashes to %#08x",
				id, rec.hash, wire.DeltaBaseHash(rec.payload))
		}
	}
	return nil
}

// stageIndex maps an object id to its newest record among the staged
// records of the body being applied: an open-addressing table whose slots
// are tagged with the body's generation. Starting a body is one increment
// rather than a clearing pass, so a table grown by a large Full body costs
// nothing on the small incrementals that follow.
type stageIndex struct {
	slots []stageSlot // linear probing; len is zero or a power of two
	gen   uint32
	n     int // slots holding the current generation
}

type stageSlot struct {
	id  uint64
	gen uint32
	at  int32
}

// next starts a new body: every slot of an older generation reads as empty.
func (x *stageIndex) next() {
	x.gen++
	x.n = 0
	if x.gen == 0 {
		// Wrapped: tags from 2^32 bodies ago would alias the new generation.
		clear(x.slots)
		x.gen = 1
	}
}

func (x *stageIndex) home(id uint64) int {
	return int((id*0x9e3779b97f4a7c15)>>32) & (len(x.slots) - 1)
}

// find returns the staged position recorded for id in this body, or -1.
func (x *stageIndex) find(id uint64) int {
	if len(x.slots) == 0 {
		return -1
	}
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.gen != x.gen {
			return -1
		}
		if s.id == id {
			return int(s.at)
		}
	}
}

// set records at as id's newest staged position, growing the table to keep
// it at most half full.
func (x *stageIndex) set(id uint64, at int) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]stageSlot, max(16, 2*len(old)))
		x.n = 0
		for _, s := range old {
			if s.gen == x.gen {
				x.set(s.id, int(s.at))
			}
		}
	}
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.gen != x.gen {
			*s = stageSlot{id: id, gen: x.gen, at: int32(at)}
			x.n++
			return
		}
		if s.id == id {
			s.at = int32(at)
			return
		}
	}
}

// ApplyRun folds a sequence of checkpoint bodies into the rebuilder as one
// atomic unit: either every body applies, or the rebuilder is left exactly as
// it was. It is the replay primitive behind stablelog's rewind — a chain read
// from a retained log must never leave the rebuilder half-rewound when a
// later body turns out to be unreadable or corrupt.
//
// The bodies are staged into a scratch rebuilder (starting empty when the
// first body is Full, since a full checkpoint resets the state anyway) and
// swapped in only after the last one applies. An empty run is a no-op.
func (rb *Rebuilder) ApplyRun(bodies [][]byte) error {
	if len(bodies) == 0 {
		return nil
	}
	scratch := &Rebuilder{reg: rb.reg, latest: make(map[uint64]latestRec)}
	if h, err := parseBodyHeader(wire.NewDecoder(bodies[0])); err != nil || h.mode != Full {
		// The run extends the current state rather than replacing it: stage
		// onto a copy so partial failure cannot leak into rb. The copies are
		// marked un-owned: scratch must never materialize a delta in place
		// over a buffer rb still references. Their fingerprints carry over.
		for id, rec := range rb.latest {
			rec.owned = false
			scratch.latest[id] = rec
		}
		scratch.bodies = append([][]byte(nil), rb.bodies...)
		scratch.maxID, scratch.seen = rb.maxID, rb.seen
	}
	for i, b := range bodies {
		if err := scratch.Apply(b); err != nil {
			return fmt.Errorf("apply body %d of %d: %w", i+1, len(bodies), err)
		}
	}
	*rb = *scratch
	return nil
}

// Objects returns the number of distinct object ids currently known.
func (rb *Rebuilder) Objects() int { return len(rb.latest) }

// MaxID returns the largest object id seen, for Domain.Advance.
func (rb *Rebuilder) MaxID() uint64 { return rb.maxID }

// Build materializes every known object: it creates a shell per id via the
// registered factories, then restores each shell's state, resolving child
// references through a Resolver. If d is non-nil it is advanced past the
// largest restored id.
//
// Objects are created and restored in ascending id order — never in Go map
// order — so a given set of bodies always builds (or fails) the same way.
//
// The returned map is keyed by object id.
func (rb *Rebuilder) Build(d *Domain) (map[uint64]Restorable, error) {
	ids := rb.sortedIDs()
	objs := make(map[uint64]Restorable, len(rb.latest))
	for _, id := range ids {
		rec := rb.latest[id]
		f, ok := rb.reg.factory(rec.typeID)
		if !ok {
			return nil, fmt.Errorf("%w: %d (object %d)", ErrUnknownType, rec.typeID, id)
		}
		o := f(id)
		if got := o.CheckpointInfo().ID(); got != id {
			return nil, fmt.Errorf("%w: factory for %q built object with id %d, want %d",
				ErrTypeConflict, rb.reg.Name(rec.typeID), got, id)
		}
		objs[id] = o
	}
	res := &Resolver{objects: objs}
	for _, id := range ids {
		rec := rb.latest[id]
		dec := wire.NewDecoder(rec.payload)
		if err := objs[id].Restore(dec, res); err != nil {
			return nil, fmt.Errorf("restore object %d (%s): %w", id, rb.reg.Name(rec.typeID), err)
		}
		if err := dec.Err(); err != nil {
			return nil, fmt.Errorf("restore object %d (%s): %w", id, rb.reg.Name(rec.typeID), err)
		}
	}
	if d != nil {
		d.Advance(rb.maxID)
	}
	return objs, nil
}

// sortedIDs returns the known object ids in ascending order.
func (rb *Rebuilder) sortedIDs() []uint64 {
	ids := make([]uint64, 0, len(rb.latest))
	for id := range rb.latest {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Resolver resolves child ids to rebuilt objects during Restore.
type Resolver struct {
	objects map[uint64]Restorable
}

// Lookup returns the object with the given id. Looking up NilID returns
// (nil, nil): a recorded nil child reference.
func (r *Resolver) Lookup(id uint64) (Restorable, error) {
	if id == NilID {
		return nil, nil
	}
	o, ok := r.objects[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownObject, id)
	}
	return o, nil
}

// ResolveAs looks up id and asserts the result to T. A nil id yields the
// zero T (a typed nil pointer) and no error.
func ResolveAs[T Restorable](r *Resolver, id uint64) (T, error) {
	var zero T
	o, err := r.Lookup(id)
	if err != nil || o == nil {
		return zero, err
	}
	v, ok := o.(T)
	if !ok {
		return zero, fmt.Errorf("%w: object %d has type %T", ErrTypeConflict, id, o)
	}
	return v, nil
}

// BodyInfo describes a parsed checkpoint body header; it is exposed for
// inspection tools.
type BodyInfo struct {
	Version byte
	Mode    Mode
	Epoch   uint64
	Records int
	Deltas  int // records of kind wire.KindDelta (version-3 bodies only)
	Bytes   int
}

// InspectBody parses a body and returns its header information and a
// callback-driven record walk. fn may be nil to collect counts only. For a
// delta record the callback receives the raw delta bytes, not the
// materialized payload; use InspectBodyKinds to tell the two apart.
func InspectBody(body []byte, fn func(id uint64, t TypeID, payload []byte) error) (BodyInfo, error) {
	if fn == nil {
		return InspectBodyKinds(body, nil)
	}
	return InspectBodyKinds(body, func(id uint64, t TypeID, _ byte, payload []byte) error {
		return fn(id, t, payload)
	})
}

// InspectBodyKinds is InspectBody with the record kind (wire.KindFull or
// wire.KindDelta) exposed to the callback. For kind wire.KindDelta, payload
// is the delta op stream; wire.DeltaLen recovers the materialized size.
func InspectBodyKinds(body []byte, fn func(id uint64, t TypeID, kind byte, payload []byte) error) (BodyInfo, error) {
	d := wire.NewDecoder(body)
	h, err := parseBodyHeader(d)
	if err != nil {
		return BodyInfo{}, err
	}
	info := BodyInfo{Version: h.version, Mode: h.mode, Epoch: h.epoch, Bytes: len(body)}
	for {
		rec, ok, err := nextRecord(d, h.version == bodyVersionDelta)
		if err != nil {
			return info, err
		}
		if !ok {
			return info, nil
		}
		info.Records++
		if rec.kind == wire.KindDelta {
			info.Deltas++
		}
		if fn != nil {
			if err := fn(rec.id, rec.typeID, rec.kind, rec.payload); err != nil {
				return info, err
			}
		}
	}
}

// CheckDeltaCoherence verifies that every delta record in a run of bodies
// has an in-run base: an earlier record for the same object, with nothing
// but incrementals between them. Full bodies reset the known set (and may
// not carry deltas at all). It is cheap — structure only, no hash checks or
// materialization — and is run by stablelog replay and ckptinspect -verify
// before Rebuilder.Apply commits to a chain, so a truncated or mis-anchored
// run fails with ErrDeltaBase up front instead of mid-rebuild.
//
// Runs with no version-3 body are vacuously coherent and return nil without
// decoding records.
func CheckDeltaCoherence(bodies [][]byte) error {
	hasDelta := false
	for _, b := range bodies {
		if len(b) > 0 && b[0] == bodyVersionDelta {
			hasDelta = true
			break
		}
	}
	if !hasDelta {
		return nil
	}
	have := make(map[uint64]struct{})
	for i, body := range bodies {
		d := wire.NewDecoder(body)
		h, err := parseBodyHeader(d)
		if err != nil {
			return fmt.Errorf("body %d: %w", i+1, err)
		}
		if h.mode == Full {
			clear(have)
		}
		for {
			rec, ok, err := nextRecord(d, h.version == bodyVersionDelta)
			if err != nil {
				return fmt.Errorf("body %d: %w", i+1, err)
			}
			if !ok {
				break
			}
			if rec.kind == wire.KindDelta {
				if h.mode == Full {
					return fmt.Errorf("body %d: %w: object %d: delta record in a full checkpoint", i+1, ErrDeltaBase, rec.id)
				}
				if _, ok := have[rec.id]; !ok {
					return fmt.Errorf("body %d: %w: object %d has no earlier payload in the run", i+1, ErrDeltaBase, rec.id)
				}
			}
			have[rec.id] = struct{}{}
		}
	}
	return nil
}
