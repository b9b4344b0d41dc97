package mmio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// The .nwhyb snapshot format: a versioned little-endian binary container
// for a parsed hypergraph, so repeated runs skip text parsing entirely.
//
//	offset  size  field
//	0       8     magic "NWHYBSN1"
//	8       2     version (uint16, currently 1)
//	10      1     kind (1 = BiEdgeList, 2 = CSR)
//	11      1     flags (bit 0: weighted)
//	12      24    three int64 dims — BiEdgeList: N0, N1, nnz;
//	              CSR: nrows, ncols, nnz
//	36      4     CRC32 (IEEE) of bytes [0, 36)
//	40      ...   payload (bulk little-endian slices)
//	end-4   4     CRC32 (IEEE) of the payload
//
// BiEdgeList payload: nnz edges as (uint32 U, uint32 V) pairs, then nnz
// float64 weights when the weighted flag is set. CSR payload: nrows+1
// int64 row offsets, nnz uint32 columns, then nnz float64 values when
// weighted. Both checksums must verify before any field is trusted, and
// every structural invariant is re-checked on load — a corrupted or forged
// snapshot is an error, never an invalid in-memory structure.
// SnapshotExt is the conventional file extension for snapshot files.
const SnapshotExt = ".nwhyb"

const (
	snapshotMagic   = "NWHYBSN1"
	snapshotVersion = 1

	snapKindBiEdgeList = 1
	snapKindCSR        = 2

	snapFlagWeighted = 1

	snapHeaderSize = 40
)

// Snapshot is the decoded content of a .nwhyb file: exactly one of Bel and
// CSR is non-nil, matching the kind byte.
type Snapshot struct {
	Bel *sparse.BiEdgeList
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

func snapHeader(kind, flags byte, d0, d1, d2 int64) [snapHeaderSize]byte {
	var h [snapHeaderSize]byte
	copy(h[:8], snapshotMagic)
	binary.LittleEndian.PutUint16(h[8:10], snapshotVersion)
	h[10], h[11] = kind, flags
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

func writeEdges(w io.Writer, edges []sparse.Edge) error {
	var buf [stageBuf]byte
	for len(edges) > 0 {
		n := min(len(edges), stageBuf/8)
		for i, e := range edges[:n] {
			binary.LittleEndian.PutUint32(buf[i*8:], e.U)
			binary.LittleEndian.PutUint32(buf[i*8+4:], e.V)
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
		edges = edges[n:]
	}
	return nil
}

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

// WriteSnapshot encodes snap (exactly one of Bel/CSR set) as a .nwhyb
// stream.
func WriteSnapshot(w io.Writer, snap *Snapshot) error {
	switch {
	case snap.Bel != nil && snap.CSR == nil:
		return writeSnapshotBiEdgeList(w, snap.Bel)
	case snap.CSR != nil && snap.Bel == nil:
		return writeSnapshotCSR(w, snap.CSR)
	default:
		return fmt.Errorf("mmio: snapshot must hold exactly one of BiEdgeList or CSR")
	}
}

func writeSnapshotBiEdgeList(w io.Writer, bel *sparse.BiEdgeList) error {
	if err := bel.Validate(); err != nil {
		return fmt.Errorf("mmio: refusing to snapshot invalid list: %w", err)
	}
	var flags byte
	if bel.Weights != nil {
		flags |= snapFlagWeighted
	}
	h := snapHeader(snapKindBiEdgeList, flags, int64(bel.N0), int64(bel.N1), int64(len(bel.Edges)))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	cw := &crcWriter{w: w}
	if err := writeEdges(cw, bel.Edges); err != nil {
		return err
	}
	if bel.Weights != nil {
		if err := writeF64s(cw, bel.Weights); err != nil {
			return err
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.crc)
	_, err := w.Write(tail[:])
	return err
}

func writeSnapshotCSR(w io.Writer, c *sparse.CSR) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("mmio: refusing to snapshot invalid CSR: %w", err)
	}
	var flags byte
	if c.Val != nil {
		flags |= snapFlagWeighted
	}
	h := snapHeader(snapKindCSR, flags, int64(c.NumRows()), int64(c.NumCols()), int64(c.NumEdges()))
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
	return sparse.WriteFileAtomic(path, func(w io.Writer) error { return WriteSnapshot(w, snap) })
}

// ReadSnapshot decodes a .nwhyb image. Both checksums are verified before
// any payload byte is interpreted; the bulk slices then decode with
// engine-parallel loops and the result is validated (bounds for an edge
// list, the full CSR invariant set via sparse.AdoptSorted) before being
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
	kind, flags := data[10], data[11]
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
	// With these bounds the per-kind `need` computations cannot overflow,
	// and their exact-size checks run before any allocation, so a forged
	// header cannot demand a huge allocation.
	if d0 < 0 || d1 < 0 || nnz < 0 || d0 > math.MaxUint32 || d1 > math.MaxUint32 ||
		nnz > int64(len(payload)) {
		return nil, fmt.Errorf("mmio: snapshot dims %d/%d/%d inconsistent with %d payload bytes", d0, d1, nnz, len(payload))
	}
	switch kind {
	case snapKindBiEdgeList:
		return readSnapshotBiEdgeList(eng, payload, weighted, d0, d1, nnz)
	case snapKindCSR:
		return readSnapshotCSR(eng, payload, weighted, d0, d1, nnz)
	default:
		return nil, fmt.Errorf("mmio: unknown snapshot kind %d", kind)
	}
}

func readSnapshotBiEdgeList(eng *parallel.Engine, payload []byte, weighted bool, d0, d1, nnz int64) (*Snapshot, error) {
	need := nnz * 8
	if weighted {
		need += nnz * 8
	}
	if int64(len(payload)) != need {
		return nil, fmt.Errorf("mmio: snapshot payload %d bytes, want %d", len(payload), need)
	}
	bel := &sparse.BiEdgeList{N0: int(d0), N1: int(d1)}
	bel.Edges = make([]sparse.Edge, nnz)
	eng.ForN(int(nnz), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			bel.Edges[i] = sparse.Edge{
				U: binary.LittleEndian.Uint32(payload[i*8:]),
				V: binary.LittleEndian.Uint32(payload[i*8+4:]),
			}
		}
	})
	if weighted {
		bel.Weights = make([]float64, nnz)
		wb := payload[nnz*8:]
		eng.ForN(int(nnz), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				bel.Weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(wb[i*8:]))
			}
		})
	}
	if err := eng.Err(); err != nil {
		return nil, err
	}
	bad := parallel.ReduceWith(eng, int(nnz), false,
		func(lo, hi int, acc bool) bool {
			for i := lo; i < hi; i++ {
				e := bel.Edges[i]
				if int64(e.U) >= d0 || int64(e.V) >= d1 {
					return true
				}
			}
			return acc
		},
		func(a, b bool) bool { return a || b })
	if err := eng.Err(); err != nil {
		return nil, err
	}
	if bad {
		return nil, fmt.Errorf("mmio: snapshot edge outside %dx%d", d0, d1)
	}
	return &Snapshot{Bel: bel}, nil
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
