package ckpt

// Test-only access to the fingerprint invariant checks, for the external
// test package (ckpt_test).

// CheckRebuilderFingerprints reports an object whose carried fingerprint
// differs from a fresh hash of its payload.
func CheckRebuilderFingerprints(rb *Rebuilder) error { return rb.checkFingerprints() }

// CheckShadowFingerprints reports a shadow whose fingerprint differs from a
// fresh hash of its bytes.
func CheckShadowFingerprints(c *ShadowCache) error { return c.checkFingerprints() }

// Fingerprint returns the fingerprint the rebuilder holds for id's payload
// and whether it holds one (a lazily hashed payload has none yet).
func Fingerprint(rb *Rebuilder, id uint64) (uint32, bool) {
	rec := rb.latest[id]
	return rec.hash, rec.hashed
}
