package mmio

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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

func TestSnapshotBiEdgeListRoundTrip(t *testing.T) {
	eng := parallel.NewEngine(4)
	defer eng.Close()
	for _, weighted := range []bool{false, true} {
		bel := belFromHypergraph(gen.BipartitePowerLaw(300, 200, 1500, 1.7, 1), weighted, 3)
		data := snapshotBytes(t, &Snapshot{Bel: bel})
		back, err := ReadSnapshot(eng, data)
		if err != nil {
			t.Fatalf("weighted=%v: %v", weighted, err)
		}
		if back.Bel == nil || back.CSR != nil {
			t.Fatal("wrong kind decoded")
		}
		if !belEqual(bel, back.Bel) {
			t.Fatalf("weighted=%v: round trip changed the list", weighted)
		}
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
		if back.CSR == nil || back.Bel != nil {
			t.Fatal("wrong kind decoded")
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
	if err := SaveSnapshot(path, &Snapshot{Bel: bel}); err != nil {
		t.Fatal(err)
	}
	if !IsSnapshotFile(path) {
		t.Fatal("IsSnapshotFile = false on a snapshot")
	}
	back, err := LoadSnapshot(eng, path)
	if err != nil {
		t.Fatal(err)
	}
	if !belEqual(bel, back.Bel) {
		t.Fatal("file round trip changed the list")
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
	bel := belFromHypergraph(gen.Uniform(6, 8, 3, 7), true, 1)
	good := snapshotBytes(t, &Snapshot{Bel: bel})
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
	bel := belFromHypergraph(gen.Uniform(4, 4, 2, 3), false, 0)
	good := snapshotBytes(t, &Snapshot{Bel: bel})
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
	bel := belFromHypergraph(gen.BipartitePowerLaw(400, 300, 2400, 1.6, 5), false, 0)
	data := snapshotBytes(t, &Snapshot{Bel: bel})
	if _, err := ReadSnapshot(ceng, data); err != context.Canceled {
		t.Fatalf("cancelled snapshot load returned %v, want context.Canceled", err)
	}
}

// TestSaveSnapshotFailureKeepsOldFile: a save that fails leaves the
// previous snapshot byte-identical and no temporary file beside it.
func TestSaveSnapshotFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.nwhyb")
	if err := SaveSnapshot(path, &Snapshot{Bel: belFromHypergraph(gen.Uniform(20, 30, 3, 6), false, 0)}); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := &sparse.BiEdgeList{N0: 1, N1: 1, Edges: []sparse.Edge{{U: 5, V: 5}}}
	if err := SaveSnapshot(path, &Snapshot{Bel: bad}); err == nil {
		t.Fatal("saved an out-of-range edge list")
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, old) {
		t.Fatalf("previous snapshot changed by a failed save (err=%v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d directory entries after a failed save, want only the old file", len(entries))
	}
}

func TestWriteSnapshotRejectsAmbiguous(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, &Snapshot{}); err == nil {
		t.Fatal("accepted empty snapshot")
	}
	bel := sparse.NewBiEdgeList(1, 1)
	csr := sparse.FromPairs(1, 1, nil, nil)
	if err := WriteSnapshot(&buf, &Snapshot{Bel: bel, CSR: csr}); err == nil {
		t.Fatal("accepted snapshot with both kinds set")
	}
}

func TestWriteSnapshotRejectsInvalidInput(t *testing.T) {
	var buf bytes.Buffer
	bad := &sparse.BiEdgeList{N0: 1, N1: 1, Edges: []sparse.Edge{{U: 5, V: 5}}}
	if err := WriteSnapshot(&buf, &Snapshot{Bel: bad}); err == nil {
		t.Fatal("snapshotted an out-of-range edge list")
	}
}

// FuzzReadSnapshot drives arbitrary bytes through the snapshot decoder: it
// must never panic or over-allocate, and anything it accepts must satisfy
// the structural invariants.
func FuzzReadSnapshot(f *testing.F) {
	belSeed := &sparse.BiEdgeList{N0: 2, N1: 3, Edges: []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}}}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, &Snapshot{Bel: belSeed}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	csrSeed := sparse.FromPairs(2, 3, belSeed.Edges, []float64{1, 2})
	if err := WriteSnapshot(&buf, &Snapshot{CSR: csrSeed}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(snapshotMagic))
	eng := parallel.SharedEngine()
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(eng, data)
		if err != nil {
			return
		}
		switch {
		case snap.Bel != nil:
			if err := snap.Bel.Validate(); err != nil {
				t.Fatalf("accepted snapshot decoded invalid list: %v", err)
			}
		case snap.CSR != nil:
			if err := snap.CSR.Validate(); err != nil {
				t.Fatalf("accepted snapshot decoded invalid CSR: %v", err)
			}
		default:
			t.Fatal("accepted snapshot decoded nothing")
		}
	})
}
