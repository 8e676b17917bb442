package tenant

import (
	"fmt"

	"ickpt/ckpt"
	"ickpt/stablelog"
)

// TenantIDs scans a shared log and returns the distinct tenant ids with at
// least one segment, in ascending order.
func TenantIDs(l *stablelog.Log) []uint32 {
	seen := make(map[uint32]bool)
	var ids []uint32
	for _, seg := range l.Segments() {
		id, _ := SplitEpoch(seg.Epoch)
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// RecoveryRun filters a shared log down to one tenant's latest replay
// chain: its most recent Full segment and every later segment of the same
// tenant, in log order. Unlike stablelog.RecoveryRun the chain is not
// contiguous in the log — other tenants' segments interleave — so sequence
// numbers increase but need not be consecutive. Returns
// stablelog.ErrNoFull when the tenant has no full checkpoint.
func RecoveryRun(l *stablelog.Log, id uint32) ([]stablelog.SegmentInfo, error) {
	var run []stablelog.SegmentInfo
	for _, seg := range l.Segments() {
		segID, _ := SplitEpoch(seg.Epoch)
		if segID != id {
			continue
		}
		if seg.Mode == ckpt.Full {
			run = run[:0]
		}
		run = append(run, seg)
	}
	if len(run) == 0 || run[0].Mode != ckpt.Full {
		return nil, stablelog.ErrNoFull
	}
	return run, nil
}

// Recover replays one tenant's latest run out of a shared log into rb
// through stablelog's replay primitive, as a sparse run: the chain skips the
// other tenants' interleaved segments, and every other run rule — Full
// anchor, no second Full, increasing epochs, delta coherence — still holds.
// The replay is atomic: on any error — no full anchor, incoherent chain,
// read failure, corrupt body — rb is unchanged. Other tenants' segments are
// untouched, so N tenants recover independently from the same file.
func Recover(l *stablelog.Log, id uint32, rb *ckpt.Rebuilder) error {
	_, err := l.Replay(rb, true, func() ([]stablelog.SegmentInfo, error) {
		return RecoveryRun(l, id)
	})
	if err != nil {
		return fmt.Errorf("tenant %d: %w", id, err)
	}
	return nil
}
