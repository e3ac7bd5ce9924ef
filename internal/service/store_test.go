package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mpcgraph"
)

// solveReport computes one real Report to feed the codec and store
// tests — the exact object the daemon would persist.
func solveReport(t *testing.T, problem mpcgraph.Problem, n int, seed uint64) *mpcgraph.Report {
	t.Helper()
	scen := "gnp"
	if problem == mpcgraph.ProblemWeightedMatching {
		scen = "weighted-gnp"
	}
	in, err := mpcgraph.GenerateScenario(scen, n, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mpcgraph.Solve(nil, in, problem, mpcgraph.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCodecRoundTrip: decode(encode(rep)) reproduces every field of
// every problem's Report shape bit-for-bit.
func TestCodecRoundTrip(t *testing.T) {
	for _, problem := range []mpcgraph.Problem{
		mpcgraph.ProblemMIS,
		mpcgraph.ProblemMaximalMatching,
		mpcgraph.ProblemApproxMatching,
		mpcgraph.ProblemVertexCover,
		mpcgraph.ProblemWeightedMatching,
	} {
		t.Run(problem.String(), func(t *testing.T) {
			rep := solveReport(t, problem, 200, 3)
			got, err := decodeReport(encodeReport(rep))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			// Reports are plain data; JSON-compare then pin the non-JSON
			// float bits explicitly.
			want, _ := json.Marshal(rep)
			have, _ := json.Marshal(got)
			if !bytes.Equal(want, have) {
				t.Errorf("round trip diverged:\n want %s\n got  %s", want, have)
			}
			if got.Value != rep.Value || got.FractionalWeight != rep.FractionalWeight {
				t.Errorf("float bits diverged: %v/%v vs %v/%v",
					got.Value, got.FractionalWeight, rep.Value, rep.FractionalWeight)
			}
			if got.Wall != rep.Wall {
				t.Errorf("wall %v, want %v", got.Wall, rep.Wall)
			}
		})
	}
}

// TestCodecRejectsDamage: truncation anywhere, bit flips anywhere, and
// unknown versions all fail decoding — nothing damaged ever parses.
func TestCodecRejectsDamage(t *testing.T) {
	data := encodeReport(solveReport(t, mpcgraph.ProblemMIS, 150, 5))
	for _, cut := range []int{1, len(reportCodecVersion), len(data) / 2, len(data) - 1} {
		if _, err := decodeReport(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded", cut)
		}
	}
	for _, flip := range []int{0, len(reportCodecVersion) + 3, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[flip] ^= 0x40
		if _, err := decodeReport(bad); err == nil {
			t.Errorf("bit flip at %d decoded", flip)
		}
	}
	future := append([]byte("mpcgraphd-report-v9\n"), data[len(reportCodecVersion):]...)
	if _, err := decodeReport(future); err == nil {
		t.Errorf("unknown entry version decoded")
	}
}

// TestCodecRejectsOverflowedLength: a crafted entry whose matching
// count sits near 2^62 — chosen so count*4 wraps to a tiny byte size —
// must fail decoding as a quarantineable error. With a multiplied
// bounds check it instead passed the check and panicked in make(),
// crashing the daemon on a checksum-valid but hostile entry.
func TestCodecRejectsOverflowedLength(t *testing.T) {
	rep := solveReport(t, mpcgraph.ProblemMIS, 150, 5)
	data := encodeReport(rep)

	// Locate the matching-length field: magic, then the length-prefixed
	// problem and model strings, then the InMIS bool set (8-byte prefix
	// plus one byte per vertex; len of a nil set is 0, matching encode).
	off := len(reportCodecVersion)
	off += 8 + len(rep.Problem.String())
	off += 8 + len(rep.Model.String())
	off += 8 + len(rep.InMIS)
	binary.LittleEndian.PutUint64(data[off:], 1<<62+2) // decodes to count 2^62+1
	sum := sha256.Sum256(data[:len(data)-checksumLen])
	copy(data[len(data)-checksumLen:], sum[:])

	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("crafted entry panicked the decoder: %v", r)
		}
	}()
	if _, err := decodeReport(data); err == nil {
		t.Fatal("overflowed matching length decoded")
	}
}

// TestDiskStoreSurvivesReopen: a Put is recovered bit-identically by a
// fresh store on the same directory — the crash-recovery contract.
func TestDiskStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	rep := solveReport(t, mpcgraph.ProblemVertexCover, 200, 9)
	key := "ab" + string(bytes.Repeat([]byte{'3'}, 62))

	d1, err := openDiskStore(dir, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	d1.Put(key, rep)
	if st := d1.Stats(); st.Writes != 1 || st.WriteErrors != 0 {
		t.Fatalf("stats after put: %+v", st)
	}

	d2, err := openDiskStore(dir, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d2.Get(key)
	if !ok {
		t.Fatal("reopened store missed the persisted entry")
	}
	want, _ := json.Marshal(rep)
	have, _ := json.Marshal(got)
	if !bytes.Equal(want, have) {
		t.Errorf("recovered Report differs:\n want %s\n got  %s", want, have)
	}
}

// TestDiskStoreQuarantinesTornWrite: a truncated entry (the torn-write
// shape an in-place corruption produces) is quarantined at scan, never
// served, and leaves the store healthy; a re-put then restores it.
func TestDiskStoreQuarantinesTornWrite(t *testing.T) {
	dir := t.TempDir()
	rep := solveReport(t, mpcgraph.ProblemMIS, 200, 9)
	key := string(bytes.Repeat([]byte{'c'}, 64))

	d1, err := openDiskStore(dir, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	d1.Put(key, rep)

	// Tear the entry: keep the first half only.
	path := filepath.Join(dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := openDiskStore(dir, 16, nil)
	if err != nil {
		t.Fatalf("torn entry made recovery fatal: %v", err)
	}
	if _, ok := d2.Get(key); ok {
		t.Fatal("torn entry was served")
	}
	st := d2.Stats()
	if st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats after torn scan: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, key)); err != nil {
		t.Errorf("torn entry not in quarantine: %v", err)
	}

	// The recompute path: a fresh Put restores the entry bit-identically.
	d2.Put(key, rep)
	got, ok := d2.Get(key)
	if !ok {
		t.Fatal("re-put entry missed")
	}
	if !bytes.Equal(encodeReport(got), encodeReport(rep)) {
		t.Errorf("restored entry is not bit-identical")
	}
	if !bytes.Equal(mustReadFile(t, path), encodeReport(rep)) {
		t.Errorf("restored file bytes differ from canonical encoding")
	}
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDiskStoreScanHygiene: temp leftovers are deleted and foreign
// file names are quarantined, without failing startup.
func TestDiskStoreScanHygiene(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"half"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a key"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := openDiskStore(dir, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Entries != 0 || st.Quarantined != 1 {
		t.Fatalf("stats after scan: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"half")); !os.IsNotExist(err) {
		t.Errorf("temp leftover survived the scan")
	}
}

// TestDiskStoreWriteErrorDegrades: an injected write failure counts,
// degrades the tier, and loses only persistence — the entry is simply
// absent, never torn.
func TestDiskStoreWriteErrorDegrades(t *testing.T) {
	fp, err := parseFailpoints("disk-write-error")
	if err != nil {
		t.Fatal(err)
	}
	d, err := openDiskStore(t.TempDir(), 16, fp)
	if err != nil {
		t.Fatal(err)
	}
	key := string(bytes.Repeat([]byte{'d'}, 64))
	d.Put(key, solveReport(t, mpcgraph.ProblemMIS, 150, 2))
	st := d.Stats()
	if st.WriteErrors != 1 || !st.Degraded || st.Entries != 0 {
		t.Fatalf("stats after failed write: %+v", st)
	}
	if _, ok := d.Get(key); ok {
		t.Fatal("failed write served a hit")
	}
}

// TestDiskStoreJanitorBounds: the store evicts down to maxEntries,
// oldest first, and never grows past the bound.
func TestDiskStoreJanitorBounds(t *testing.T) {
	dir := t.TempDir()
	d, err := openDiskStore(dir, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := solveReport(t, mpcgraph.ProblemMIS, 150, 2)
	for i := 0; i < 6; i++ {
		d.Put(fmt.Sprintf("%064x", i), rep)
	}
	if st := d.Stats(); st.Entries > 3 {
		t.Fatalf("janitor left %d entries, bound 3", st.Entries)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range files {
		if !f.IsDir() {
			n++
		}
	}
	if n > 3 {
		t.Errorf("%d entry files on disk, bound 3", n)
	}
}

// TestTieredCacheRace hammers Get/Put/eviction across both tiers from
// many goroutines; run under -race this pins the locking discipline.
func TestTieredCacheRace(t *testing.T) {
	disk, err := openDiskStore(t.TempDir(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &tieredCache{mem: newLRU[*result](2), disk: disk}
	res := newResult(solveReport(t, mpcgraph.ProblemMIS, 120, 1))
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := keys[(g+i)%len(keys)]
				if i%3 == 0 {
					c.Put(key, res)
				}
				if got, _, ok := c.Get(key); ok && (got == nil || got.rep == nil) {
					t.Error("hit returned nil report")
				}
			}
		}()
	}
	wg.Wait()
	// Both tiers stay within bounds and the promoted entries still decode.
	if st := disk.Stats(); st.Entries > 4 {
		t.Errorf("disk tier grew to %d entries, bound 4", st.Entries)
	}
	for _, key := range keys {
		if got, _, ok := c.Get(key); ok {
			if !bytes.Equal(encodeReport(got.rep), encodeReport(res.rep)) || got.hash != res.hash {
				t.Errorf("entry %s not bit-identical after the race", key[:8])
			}
		}
	}
}
