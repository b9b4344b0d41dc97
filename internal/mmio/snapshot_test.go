package mmio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

func snapshotBytes(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// csrFromHypergraph is belFromHypergraph as the incidence CSR a snapshot
// holds.
func csrFromHypergraph(h *core.Hypergraph, weighted bool, seed int64) *sparse.CSR {
	bel := belFromHypergraph(h, weighted, seed)
	return sparse.FromPairs(bel.N0, bel.N1, bel.Edges, bel.Weights)
}

// kind1Forged is what the parent's writer made of a 2×3 list of two
// incidences as a kind-1 (BiEdgeList) snapshot, with all three dims then
// forged to 2^40 and the header checksum recomputed: a reader that still
// sized a kind-1 payload from them would ask for terabytes.
var kind1Forged = []byte{
	0x4e, 0x57, 0x48, 0x59, 0x42, 0x53, 0x4e, 0x31, 0x01, 0x00, 0x01, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
	0xe0, 0x08, 0x81, 0xa7, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
	0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x2f, 0xcf, 0xbd, 0x11,
}

// The BiEdgeList kind is gone: its files fail on the kind byte, before any
// dimension is read, and cost the reader little more than the error.
func TestSnapshotRejectsBiEdgeListKind(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	ReadSnapshot(eng, kind1Forged) // builds crc32's 8 KiB table on first use
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSnapshot(eng, kind1Forged)
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "mmio: unknown snapshot kind 1" {
		t.Fatalf("kind-1 snapshot: error %v, want unknown snapshot kind 1", err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(kind1Forged)); got > limit {
		t.Fatalf("rejecting a %d-byte kind-1 snapshot allocated %d B (limit %d)", len(kind1Forged), got, limit)
	}
}

func TestSnapshotCSRRoundTrip(t *testing.T) {
	eng := parallel.NewEngine(4)
	defer eng.Close()
	for _, weighted := range []bool{false, true} {
		bel := belFromHypergraph(gen.BipartitePowerLaw(300, 200, 1500, 1.7, 2), weighted, 4)
		csr := sparse.FromPairs(bel.N0, bel.N1, bel.Edges, bel.Weights)
		data := snapshotBytes(t, &Snapshot{CSR: csr})
		back, err := ReadSnapshot(eng, data)
		if err != nil {
			t.Fatalf("weighted=%v: %v", weighted, err)
		}
		if back.CSR == nil {
			t.Fatal("nothing decoded")
		}
		if !csr.Equal(back.CSR) {
			t.Fatalf("weighted=%v: round trip changed the CSR", weighted)
		}
		if weighted && !reflect.DeepEqual(csr.Val, back.CSR.Val) {
			t.Fatal("round trip changed CSR values")
		}
	}
}

// Text parse -> snapshot -> load must reproduce a byte-identical CSR — the
// acceptance-criteria round trip.
func TestTextSnapshotLoadByteIdenticalCSR(t *testing.T) {
	eng := parallel.NewEngine(4)
	defer eng.Close()
	bel, err := ReadBiEdgeList(strings.NewReader(paperMM))
	if err != nil {
		t.Fatal(err)
	}
	bel.Dedup()
	csr := sparse.FromPairs(bel.N0, bel.N1, bel.Edges, bel.Weights)
	back, err := ReadSnapshot(eng, snapshotBytes(t, &Snapshot{CSR: csr}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(csr.RowPtr, back.CSR.RowPtr) || !reflect.DeepEqual(csr.Col, back.CSR.Col) {
		t.Fatal("snapshot CSR storage not byte-identical to source")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "h.nwhyb")
	bel := belFromHypergraph(gen.Uniform(20, 30, 3, 6), false, 0)
	csr := sparse.FromPairs(bel.N0, bel.N1, bel.Edges, nil)
	if err := SaveSnapshot(path, &Snapshot{CSR: csr}); err != nil {
		t.Fatal(err)
	}
	if !IsSnapshotFile(path) {
		t.Fatal("IsSnapshotFile = false on a snapshot")
	}
	back, err := LoadSnapshot(eng, path)
	if err != nil {
		t.Fatal(err)
	}
	if !csrEqual(csr, back.CSR) {
		t.Fatal("file round trip changed the CSR")
	}
	mtx := filepath.Join(dir, "h.mtx")
	if err := WriteHypergraphFile(mtx, bel); err != nil {
		t.Fatal(err)
	}
	if IsSnapshotFile(mtx) {
		t.Fatal("IsSnapshotFile = true on a Matrix Market file")
	}
	if IsSnapshotFile(filepath.Join(dir, "missing")) {
		t.Fatal("IsSnapshotFile = true on a missing file")
	}
}

// Every single-byte corruption of a small snapshot must be rejected (or, if
// accepted, must decode only via a checksum collision — with CRC32 over
// these sizes single-byte flips always change the sum, so acceptance is a
// bug outright).
func TestSnapshotRejectsCorruption(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	good := snapshotBytes(t, &Snapshot{CSR: csrFromHypergraph(gen.Uniform(6, 8, 3, 7), true, 1)})
	if _, err := ReadSnapshot(eng, good); err != nil {
		t.Fatal(err)
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x41
		if _, err := ReadSnapshot(eng, bad); err == nil {
			t.Fatalf("accepted snapshot with byte %d corrupted", i)
		}
	}
	for _, cut := range []int{len(good) - 1, len(good) / 2, snapHeaderSize, 8, 0} {
		if _, err := ReadSnapshot(eng, good[:cut]); err == nil {
			t.Fatalf("accepted snapshot truncated to %d bytes", cut)
		}
	}
}

// A forged header declaring a huge entry count must fail fast on the size
// check, not attempt the allocation.
func TestSnapshotRejectsForgedDims(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	good := snapshotBytes(t, &Snapshot{CSR: csrFromHypergraph(gen.Uniform(4, 4, 2, 3), false, 0)})
	forge := func(mut func(h []byte)) []byte {
		bad := append([]byte(nil), good...)
		mut(bad)
		binary.LittleEndian.PutUint32(bad[36:40], crc32.ChecksumIEEE(bad[:36]))
		return bad
	}
	huge := forge(func(h []byte) { binary.LittleEndian.PutUint64(h[28:36], 1<<60) })
	if _, err := ReadSnapshot(eng, huge); err == nil {
		t.Fatal("accepted snapshot declaring 2^60 entries")
	}
	negative := forge(func(h []byte) { binary.LittleEndian.PutUint64(h[12:20], ^uint64(0)) })
	if _, err := ReadSnapshot(eng, negative); err == nil {
		t.Fatal("accepted snapshot with negative dimension")
	}
	badKind := forge(func(h []byte) { h[10] = 9 })
	if _, err := ReadSnapshot(eng, badKind); err == nil {
		t.Fatal("accepted snapshot with unknown kind")
	}
	badVersion := forge(func(h []byte) { binary.LittleEndian.PutUint16(h[8:10], 99) })
	if _, err := ReadSnapshot(eng, badVersion); err == nil {
		t.Fatal("accepted snapshot with unknown version")
	}
	badFlags := forge(func(h []byte) { h[11] = 0xFE })
	if _, err := ReadSnapshot(eng, badFlags); err == nil {
		t.Fatal("accepted snapshot with unknown flags")
	}
}

// An unsorted or inconsistent CSR payload must be rejected by the
// AdoptSorted validation even though both checksums verify.
func TestSnapshotRejectsInvalidCSRPayload(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	csr := sparse.FromPairs(2, 4, []sparse.Edge{{U: 0, V: 3}, {U: 0, V: 1}, {U: 1, V: 2}}, nil)
	good := snapshotBytes(t, &Snapshot{CSR: csr})
	// Swap row 0's two (sorted) columns in the payload and re-checksum.
	bad := append([]byte(nil), good...)
	colOff := snapHeaderSize + 3*8
	c0 := binary.LittleEndian.Uint32(bad[colOff:])
	c1 := binary.LittleEndian.Uint32(bad[colOff+4:])
	binary.LittleEndian.PutUint32(bad[colOff:], c1)
	binary.LittleEndian.PutUint32(bad[colOff+4:], c0)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[snapHeaderSize:len(bad)-4]))
	if _, err := ReadSnapshot(eng, bad); err == nil {
		t.Fatal("accepted CSR snapshot with unsorted row")
	}
}

func TestSnapshotCancellation(t *testing.T) {
	eng := parallel.NewEngine(4)
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ceng := eng.WithContext(ctx)
	data := snapshotBytes(t, &Snapshot{CSR: csrFromHypergraph(gen.BipartitePowerLaw(400, 300, 2400, 1.6, 5), false, 0)})
	if _, err := ReadSnapshot(ceng, data); err != context.Canceled {
		t.Fatalf("cancelled snapshot load returned %v, want context.Canceled", err)
	}
}

// TestSaveSnapshotFailureKeepsOldFile: a save that fails leaves the
// previous snapshot byte-identical and no temporary file beside it.
func TestSaveSnapshotFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.nwhyb")
	if err := SaveSnapshot(path, &Snapshot{CSR: csrFromHypergraph(gen.Uniform(20, 30, 3, 6), false, 0)}); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(path, &Snapshot{CSR: outOfRangeCSR()}); err == nil {
		t.Fatal("saved an out-of-range CSR")
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, old) {
		t.Fatalf("previous snapshot changed by a failed save (err=%v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d directory entries after a failed save, want only the old file", len(entries))
	}
}

// outOfRangeCSR is a 1×1 CSR whose one entry names column 5.
func outOfRangeCSR() *sparse.CSR {
	c := sparse.FromPairs(1, 1, []sparse.Edge{{U: 0, V: 0}}, nil)
	c.Col[0] = 5
	return c
}

// With one kind the only ambiguous snapshot is one that holds nothing: it is
// refused, and nothing is written for it.
func TestWriteSnapshotRejectsAmbiguous(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, &Snapshot{}); err == nil {
		t.Fatal("accepted empty snapshot")
	}
	if buf.Len() != 0 {
		t.Fatalf("wrote %d bytes for a refused snapshot", buf.Len())
	}
}

func TestWriteSnapshotRejectsInvalidInput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, &Snapshot{CSR: outOfRangeCSR()}); err == nil {
		t.Fatal("snapshotted an out-of-range CSR")
	}
}

// TestWriteFileAtomicKeepsOldFileOnFailure: a writer that fails midway
// leaves the previous file byte-identical and no temporary file behind; a
// writer that succeeds replaces it.
func TestWriteFileAtomicKeepsOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	write := func(content string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, content); return err }
	}
	if err := writeFileAtomic(path, write("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if err := write("half a file")(w); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's", err)
	}
	if now, err := os.ReadFile(path); err != nil || string(now) != "old" {
		t.Fatalf("previous file changed by a failed save (err=%v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d directory entries after a failed save, want only the old file", len(entries))
	}
	if err := writeFileAtomic(path, write("new")); err != nil {
		t.Fatal(err)
	}
	if now, err := os.ReadFile(path); err != nil || string(now) != "new" {
		t.Fatalf("successful save did not replace the file (err=%v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d directory entries after a save, want 1", len(entries))
	}
}

// FuzzReadSnapshot drives arbitrary bytes through the snapshot decoder: it
// must never panic or over-allocate, and anything it accepts must satisfy
// the structural invariants.
func FuzzReadSnapshot(f *testing.F) {
	pairs := []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	for _, weights := range [][]float64{nil, {1, 2}} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, &Snapshot{CSR: sparse.FromPairs(2, 3, pairs, weights)}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(snapshotMagic))
	eng := parallel.SharedEngine()
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(eng, data)
		if err != nil {
			return
		}
		if snap.CSR == nil {
			t.Fatal("accepted snapshot decoded nothing")
		}
		if err := snap.CSR.Validate(); err != nil {
			t.Fatalf("accepted snapshot decoded invalid CSR: %v", err)
		}
	})
}
