package server

import (
	"pipesched"
	"pipesched/internal/fleet/store"
)

// diskTier is the crash-safe persistent cache tier under the in-memory
// result LRU: clean optimal results are written through to an
// internal/fleet/store directory (per-entry checksums, atomic
// rename-on-write), and misses in the LRU consult it before compiling.
// A restarted server therefore begins warm — the store's recovery scan
// quarantines anything truncated or corrupt instead of failing startup.
//
// Entries are *pipesched.Compiled values in the versioned binary format
// of diskcodec.go. Only cacheable results (clean, optimal, fault-free —
// see cacheable) ever reach the tier, so a decode round-trip reproduces
// exactly what a fresh compile would have produced. An entry that fails
// to decode — corrupt, written by an older format version (gob, before
// the codec existed), or trailing extra bytes — is treated as a miss,
// deleted and counted as quarantined: like the store's own checksum
// failures, persistent-tier corruption degrades to recomputation, never
// to a wrong answer.
type diskTier struct {
	st  *store.Store
	met *serverMetrics
	rep store.RecoveryReport
}

// openDiskTier opens (or creates) the persistent tier at dir and records
// the recovery outcome in the metric set.
func openDiskTier(dir string, met *serverMetrics) (*diskTier, error) {
	st, rep, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	met.diskRecovered.Add(int64(rep.Recovered))
	met.diskQuarantined.Add(int64(rep.Quarantined))
	met.diskEntries.Set(int64(st.Len()))
	return &diskTier{st: st, met: met, rep: rep}, nil
}

// get decodes the entry for key, if present and well-formed.
func (d *diskTier) get(key string) (*pipesched.Compiled, bool) {
	if d == nil {
		return nil, false
	}
	payload, ok := d.st.Get(key)
	if !ok {
		d.met.diskEntries.Set(int64(d.st.Len())) // may have quarantined on read
		return nil, false
	}
	c, err := decodeCompiled(payload)
	if err != nil {
		d.st.Delete(key)
		d.met.diskQuarantined.Inc()
		d.met.diskEntries.Set(int64(d.st.Len()))
		return nil, false
	}
	d.met.diskHits.Inc()
	return c, true
}

// put writes one result through to disk. Encode or write failures are
// dropped: the persistent tier is an optimization, and the in-memory
// tier above it already holds the entry.
func (d *diskTier) put(key string, c *pipesched.Compiled) {
	if d == nil {
		return
	}
	payload, err := encodeCompiled(c)
	if err != nil {
		return
	}
	if err := d.st.Put(key, payload); err != nil {
		return
	}
	d.met.diskEntries.Set(int64(d.st.Len()))
}
