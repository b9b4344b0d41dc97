package mmio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// The .nwhyb snapshot format: a versioned little-endian binary container
// for a parsed hypergraph, so repeated runs skip text parsing entirely.
//
//	offset  size  field
//	0       8     magic "NWHYBSN1"
//	8       2     version (uint16, currently 1)
//	10      1     kind (2 = CSR; any other value is rejected)
//	11      1     flags (bit 0: weighted)
//	12      24    three int64 dims: nrows, ncols, nnz
//	36      4     CRC32 (IEEE) of bytes [0, 36)
//	40      ...   payload (bulk little-endian slices)
//	end-4   4     CRC32 (IEEE) of the payload
//
// Payload: nrows+1 int64 row offsets, nnz uint32 columns, then nnz float64
// values when weighted. Each checksum verifies before a field it covers is
// trusted, and every structural invariant is re-checked on load — a
// corrupted or forged snapshot is an error, never an invalid in-memory
// structure.

// SnapshotExt is the conventional file extension for snapshot files.
const SnapshotExt = ".nwhyb"

const (
	snapshotMagic   = "NWHYBSN1"
	snapshotVersion = 1

	snapKindCSR      = 2
	snapFlagWeighted = 1

	snapHeaderSize = 40
)

// Snapshot is the content of a .nwhyb file: a hypergraph's hyperedge
// incidence CSR.
type Snapshot struct {
	CSR *sparse.CSR
}

// IsSnapshotData reports whether data begins with the .nwhyb magic.
func IsSnapshotData(data []byte) bool {
	return len(data) >= len(snapshotMagic) && string(data[:len(snapshotMagic)]) == snapshotMagic
}

// IsSnapshotFile reports whether the file at path begins with the .nwhyb
// magic (false on any I/O error).
func IsSnapshotFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var head [len(snapshotMagic)]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return false
	}
	return IsSnapshotData(head[:])
}

func snapHeader(flags byte, d0, d1, d2 int64) [snapHeaderSize]byte {
	var h [snapHeaderSize]byte
	copy(h[:8], snapshotMagic)
	binary.LittleEndian.PutUint16(h[8:10], snapshotVersion)
	h[10], h[11] = snapKindCSR, flags
	binary.LittleEndian.PutUint64(h[12:20], uint64(d0))
	binary.LittleEndian.PutUint64(h[20:28], uint64(d1))
	binary.LittleEndian.PutUint64(h[28:36], uint64(d2))
	binary.LittleEndian.PutUint32(h[36:40], crc32.ChecksumIEEE(h[:36]))
	return h
}

// crcWriter tracks the running payload checksum of everything written
// through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

// stageBuf is the staging-buffer size for bulk slice encoding: big enough
// to amortize Write calls, small enough to stay cache-resident.
const stageBuf = 1 << 16

func writeU32s(w io.Writer, vals []uint32) error {
	var buf [stageBuf]byte
	for len(vals) > 0 {
		n := min(len(vals), stageBuf/4)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], v)
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func writeI64s(w io.Writer, vals []int64) error {
	var buf [stageBuf]byte
	for len(vals) > 0 {
		n := min(len(vals), stageBuf/8)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func writeF64s(w io.Writer, vals []float64) error {
	var buf [stageBuf]byte
	for len(vals) > 0 {
		n := min(len(vals), stageBuf/8)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// WriteSnapshot encodes snap as a .nwhyb stream.
func WriteSnapshot(w io.Writer, snap *Snapshot) error {
	c := snap.CSR
	if c == nil {
		return fmt.Errorf("mmio: snapshot holds no CSR")
	}
	if err := c.Validate(); err != nil {
		return fmt.Errorf("mmio: refusing to snapshot invalid CSR: %w", err)
	}
	var flags byte
	if c.Val != nil {
		flags |= snapFlagWeighted
	}
	h := snapHeader(flags, int64(c.NumRows()), int64(c.NumCols()), int64(c.NumEdges()))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	cw := &crcWriter{w: w}
	if err := writeI64s(cw, c.RowPtr); err != nil {
		return err
	}
	if err := writeU32s(cw, c.Col); err != nil {
		return err
	}
	if c.Val != nil {
		if err := writeF64s(cw, c.Val); err != nil {
			return err
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.crc)
	_, err := w.Write(tail[:])
	return err
}

// SaveSnapshot writes snap to path as a .nwhyb file, atomically: a failed or
// interrupted save leaves the previous file intact.
func SaveSnapshot(path string, snap *Snapshot) error {
	return writeFileAtomic(path, func(w io.Writer) error { return WriteSnapshot(w, snap) })
}

// writeFileAtomic replaces path with what write produces, or leaves it
// alone: the bytes go to a temporary file in path's directory, are synced to
// disk, and only then renamed over path, so neither a failing write nor a
// crash mid-save can destroy the previous file. On any error the temporary
// file is removed.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Chmod(0o644) // CreateTemp's 0600 is not what os.Create gave
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// ReadSnapshot decodes a .nwhyb image. The header is checked before any
// payload byte is interpreted, the payload checksum before any is decoded;
// the bulk slices then decode with engine-parallel loops and the result is
// validated (the full CSR invariant set via sparse.AdoptSorted) before being
// returned. Cancellation is observed at decode-chunk boundaries.
func ReadSnapshot(eng *parallel.Engine, data []byte) (*Snapshot, error) {
	if len(data) < snapHeaderSize+4 {
		return nil, fmt.Errorf("mmio: snapshot truncated (%d bytes)", len(data))
	}
	if !IsSnapshotData(data) {
		return nil, fmt.Errorf("mmio: bad snapshot magic")
	}
	if crc32.ChecksumIEEE(data[:36]) != binary.LittleEndian.Uint32(data[36:40]) {
		return nil, fmt.Errorf("mmio: snapshot header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint16(data[8:10]); v != snapshotVersion {
		return nil, fmt.Errorf("mmio: unsupported snapshot version %d", v)
	}
	if kind := data[10]; kind != snapKindCSR {
		return nil, fmt.Errorf("mmio: unknown snapshot kind %d", kind)
	}
	flags := data[11]
	if flags&^byte(snapFlagWeighted) != 0 {
		return nil, fmt.Errorf("mmio: unknown snapshot flags %#x", flags)
	}
	weighted := flags&snapFlagWeighted != 0
	d0 := int64(binary.LittleEndian.Uint64(data[12:20]))
	d1 := int64(binary.LittleEndian.Uint64(data[20:28]))
	nnz := int64(binary.LittleEndian.Uint64(data[28:36]))
	payload := data[snapHeaderSize : len(data)-4]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, fmt.Errorf("mmio: snapshot payload checksum mismatch")
	}
	// Dimension sanity before any sizing arithmetic: non-negative, index
	// spaces addressable by uint32, and the entry count bounded by the
	// payload that is actually present (each entry takes at least 4 bytes).
	// With these bounds the `need` computation cannot overflow, and its
	// exact-size check runs before any allocation, so a forged header cannot
	// demand a huge allocation.
	if d0 < 0 || d1 < 0 || nnz < 0 || d0 > math.MaxUint32 || d1 > math.MaxUint32 ||
		nnz > int64(len(payload)) {
		return nil, fmt.Errorf("mmio: snapshot dims %d/%d/%d inconsistent with %d payload bytes", d0, d1, nnz, len(payload))
	}
	return readSnapshotCSR(eng, payload, weighted, d0, d1, nnz)
}

func readSnapshotCSR(eng *parallel.Engine, payload []byte, weighted bool, d0, d1, nnz int64) (*Snapshot, error) {
	need := (d0+1)*8 + nnz*4
	if weighted {
		need += nnz * 8
	}
	if int64(len(payload)) != need {
		return nil, fmt.Errorf("mmio: snapshot payload %d bytes, want %d", len(payload), need)
	}
	rowptr := make([]int64, d0+1)
	eng.ForN(len(rowptr), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			rowptr[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	})
	cb := payload[(d0+1)*8:]
	col := make([]uint32, nnz)
	eng.ForN(int(nnz), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			col[i] = binary.LittleEndian.Uint32(cb[i*4:])
		}
	})
	var val []float64
	if weighted {
		vb := cb[nnz*4:]
		val = make([]float64, nnz)
		eng.ForN(int(nnz), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				val[i] = math.Float64frombits(binary.LittleEndian.Uint64(vb[i*8:]))
			}
		})
	}
	if err := eng.Err(); err != nil {
		return nil, err
	}
	c, err := sparse.AdoptSorted(eng, int(d0), int(d1), rowptr, col, val)
	if err != nil {
		return nil, fmt.Errorf("mmio: snapshot CSR invalid: %w", err)
	}
	return &Snapshot{CSR: c}, nil
}

// LoadSnapshot reads the .nwhyb file at path.
func LoadSnapshot(eng *parallel.Engine, path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadSnapshot(eng, data)
}
