package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mpcgraph"
)

// diskStore is the persistent tier (L2) of the result cache: one file
// per cache key (see CacheKey) under the -cache-dir root, holding the
// versioned canonical Report serialization of codec.go. Writes are
// atomic — temp file, fsync, rename — so a crash at any instant leaves
// either the complete previous state or the complete new entry, never
// a torn file; the startup scan therefore only ever sees whole entries
// plus (possibly) leftover temp files, which it deletes.
//
// Entries that fail validation anyway (in-place corruption, truncation
// by an operator, a foreign or future entry version) are quarantined
// into the quarantine/ subdirectory — recovery is never fatal, a
// damaged entry just costs one recompute. The store reads the wall
// clock only to stamp file mtimes for its size janitor (recency-based
// eviction); wall time never enters cache keys or the Report bytes
// themselves (see the no-wall-clock analyzer in docs/analysis.md).
type diskStore struct {
	dir        string
	maxEntries int
	fp         *failpoints
	// observe, when non-nil, receives the duration of each disk
	// operation ("read" for Get loads, "write" for Put persists) — the
	// telemetry hook build wires to the disk-op histogram. It keeps the
	// store free of any obs dependency.
	observe func(op string, d time.Duration)

	mu      sync.Mutex
	keys    map[string]struct{} // validated entries present on disk
	writing map[string]struct{} // keys with a write in progress (dedupe only)

	hits        uint64
	writes      uint64
	writeErrors uint64
	quarantined uint64
	degraded    bool
	lastErr     string
}

// quarantineDir is the subdirectory corrupt entries are moved into.
const quarantineDir = "quarantine"

// tmpPrefix marks in-progress writes; scan deletes any leftovers.
const tmpPrefix = "tmp-"

// openDiskStore opens (creating if needed) the persistent tier rooted
// at dir and scans it: valid entries join the index, temp leftovers are
// deleted, and anything else — corrupt, truncated, unknown version —
// is quarantined. Only an unusable root directory is an error; damaged
// entries never are.
func openDiskStore(dir string, maxEntries int, fp *failpoints) (*diskStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("service: cache dir: %v", err)
	}
	d := &diskStore{dir: dir, maxEntries: maxEntries, fp: fp, keys: make(map[string]struct{}), writing: make(map[string]struct{})}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: cache dir: %v", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		path := filepath.Join(dir, name)
		if len(name) >= len(tmpPrefix) && name[:len(tmpPrefix)] == tmpPrefix {
			_ = os.Remove(path) // a write the crash interrupted before rename
			continue
		}
		if !validKeyName(name) {
			d.quarantine(name, fmt.Errorf("not a cache-key file name"))
			continue
		}
		if fp.enabled("scan-corrupt") {
			d.quarantine(name, fmt.Errorf("injected scan corruption (failpoint)"))
			continue
		}
		if _, err := d.load(name); err != nil {
			d.quarantine(name, err)
			continue
		}
		d.keys[name] = struct{}{}
	}
	return d, nil
}

// validKeyName accepts exactly the hex SHA-256 shape of CacheKey.
func validKeyName(name string) bool {
	if len(name) != 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// load reads and decodes one entry file.
func (d *diskStore) load(key string) (*mpcgraph.Report, error) {
	data, err := os.ReadFile(filepath.Join(d.dir, key))
	if err != nil {
		return nil, err
	}
	return decodeReport(data)
}

// quarantine moves a damaged entry aside (falling back to deletion) so
// it is never scanned, served, or overwritten-in-place again. The file
// moves happen before d.mu is taken, so a slow disk never stalls the
// index; racing quarantines of one key are harmless (the second rename
// fails, the fallback remove finds nothing).
func (d *diskStore) quarantine(name string, reason error) {
	src := filepath.Join(d.dir, name)
	if err := os.Rename(src, filepath.Join(d.dir, quarantineDir, name)); err != nil {
		_ = os.Remove(src) // best effort: the entry may already be gone
	}
	d.mu.Lock()
	d.quarantined++
	d.lastErr = fmt.Sprintf("%s: %v", name, reason)
	d.mu.Unlock()
}

// Get returns the persisted Report for key. A present-but-invalid
// entry is quarantined and reported as a miss (the caller recomputes).
//
// Like Put, the disk I/O — read, quarantine rename, recency mtime —
// runs outside d.mu: the lock covers only the index probe and counter
// updates, so one slow read never serializes every other Get, Put and
// Stats. Completed entries are immutable (atomic rename, re-puts are
// no-ops), so an unlocked read is safe; the only unlocked/index race is
// a janitor eviction between the probe and the read, which surfaces as
// ENOENT and is treated as the miss it is.
func (d *diskStore) Get(key string) (*mpcgraph.Report, bool) {
	d.mu.Lock()
	_, ok := d.keys[key]
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	loadStart := time.Now()
	rep, err := d.load(key)
	if d.observe != nil {
		d.observe("read", time.Since(loadStart))
	}
	if err != nil {
		d.mu.Lock()
		delete(d.keys, key)
		d.mu.Unlock()
		if !os.IsNotExist(err) {
			d.quarantine(key, err)
		}
		return nil, false
	}
	d.mu.Lock()
	d.hits++
	d.mu.Unlock()
	// Recency for the janitor only; never part of keys or entry bytes.
	now := time.Now()
	_ = os.Chtimes(filepath.Join(d.dir, key), now, now) // best-effort recency
	return rep, true
}

// Put persists rep under key atomically. Determinism makes re-puts
// no-ops: any two Reports under one key are bit-identical, so the
// first persisted entry is kept. Failures degrade the tier (counted,
// surfaced in /healthz) instead of failing the job.
//
// The write itself — encode, temp file, fsync, rename, dir fsync —
// runs outside d.mu so a slow disk serializes only same-key puts, not
// every Get and Stats against one fsync. The writing set dedupes
// concurrent same-key puts; racing writes of one key would be harmless
// anyway (bit-identical bytes, atomic rename) but would waste fsyncs.
func (d *diskStore) Put(key string, rep *mpcgraph.Report) {
	d.mu.Lock()
	if _, ok := d.keys[key]; ok {
		d.mu.Unlock()
		return
	}
	if _, ok := d.writing[key]; ok {
		d.mu.Unlock()
		return
	}
	d.writing[key] = struct{}{}
	d.mu.Unlock()

	writeStart := time.Now()
	err := d.write(key, rep)
	if d.observe != nil {
		d.observe("write", time.Since(writeStart))
	}

	d.mu.Lock()
	delete(d.writing, key)
	if err != nil {
		d.writeErrors++
		d.degraded = true
		d.lastErr = err.Error()
		d.mu.Unlock()
		return
	}
	d.keys[key] = struct{}{}
	d.writes++
	overflow := d.maxEntries > 0 && len(d.keys) > d.maxEntries
	d.mu.Unlock()
	if overflow {
		d.janitor()
	}
}

// write performs the atomic temp+fsync+rename sequence.
func (d *diskStore) write(key string, rep *mpcgraph.Report) error {
	if d.fp.enabled("disk-write-error") {
		return fmt.Errorf("injected disk-write-error (failpoint)")
	}
	f, err := os.CreateTemp(d.dir, tmpPrefix+key+"-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(encodeReport(rep)); err == nil {
		err = f.Sync()
	}
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(d.dir, key))
	}
	if err != nil {
		_ = os.Remove(tmp) // the write already failed; report that error
		return err
	}
	// Make the rename itself durable (best effort: not all platforms
	// support fsync on directories).
	if dirf, dirErr := os.Open(d.dir); dirErr == nil {
		_ = dirf.Sync()
		_ = dirf.Close()
	}
	return nil
}

// janitor evicts the oldest-mtime entries beyond maxEntries. Called
// after a successful write pushed the index past capacity. The stats
// and removals run outside d.mu against an index snapshot: eviction is
// recency policy, not correctness, so racing a concurrent Get (which
// treats a vanished file as a miss) or Put (whose new entry is counted
// by the next janitor pass) is benign, and a slow disk never holds up
// the index.
func (d *diskStore) janitor() {
	d.mu.Lock()
	max := d.maxEntries
	keys := make([]string, 0, len(d.keys))
	for key := range d.keys {
		keys = append(keys, key)
	}
	d.mu.Unlock()
	if max <= 0 || len(keys) <= max {
		return
	}
	type aged struct {
		key   string
		mtime time.Time
	}
	entries := make([]aged, 0, len(keys))
	var drop []string
	for _, key := range keys {
		info, err := os.Stat(filepath.Join(d.dir, key))
		if err != nil {
			drop = append(drop, key) // vanished underneath us; drop the index entry
			continue
		}
		entries = append(entries, aged{key, info.ModTime()})
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].key < entries[j].key
	})
	for _, ent := range entries[:max0(len(entries)-max)] {
		_ = os.Remove(filepath.Join(d.dir, ent.key)) // eviction is best effort
		drop = append(drop, ent.key)
	}
	d.mu.Lock()
	for _, key := range drop {
		delete(d.keys, key)
	}
	d.mu.Unlock()
}

func max0(n int) int {
	if n < 0 {
		return 0
	}
	return n
}

// diskStats is the /metrics and /healthz snapshot of the tier.
type diskStats struct {
	Entries     int
	Capacity    int
	Hits        uint64
	Writes      uint64
	WriteErrors uint64
	Quarantined uint64
	Degraded    bool
	LastErr     string
}

func (d *diskStore) Stats() diskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return diskStats{
		Entries:     len(d.keys),
		Capacity:    d.maxEntries,
		Hits:        d.hits,
		Writes:      d.writes,
		WriteErrors: d.writeErrors,
		Quarantined: d.quarantined,
		Degraded:    d.degraded,
		LastErr:     d.lastErr,
	}
}
