package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Binary CSR serialization: a compact cache format for large hypergraphs so
// repeated experiments skip Matrix Market parsing and CSR construction.
//
// Layout (little endian): 8-byte magic, nrows/ncols/nnz int64, hasVal byte,
// RowPtr (nrows+1 int64), Col (nnz uint32), Val (nnz float64, if hasVal).

var csrMagic = [8]byte{'N', 'W', 'H', 'Y', 'C', 'S', 'R', '1'}

// WriteCSR serializes c to w in the binary CSR format.
func WriteCSR(w io.Writer, c *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(csrMagic[:]); err != nil {
		return err
	}
	hasVal := byte(0)
	if c.Val != nil {
		hasVal = 1
	}
	for _, v := range []int64{int64(c.nrows), int64(c.ncols), int64(len(c.Col))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := bw.WriteByte(hasVal); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, c.RowPtr); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, c.Col); err != nil {
		return err
	}
	if hasVal == 1 {
		if err := binary.Write(bw, binary.LittleEndian, c.Val); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSR deserializes a CSR written by WriteCSR, validating structure.
func ReadCSR(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("sparse: reading magic: %w", err)
	}
	if magic != csrMagic {
		return nil, fmt.Errorf("sparse: bad magic %q", magic[:])
	}
	var dims [3]int64
	if err := binary.Read(br, binary.LittleEndian, &dims); err != nil {
		return nil, fmt.Errorf("sparse: reading dims: %w", err)
	}
	nrows, ncols, nnz := dims[0], dims[1], dims[2]
	const maxReasonable = int64(1) << 40
	if nrows < 0 || ncols < 0 || nnz < 0 || nrows > maxReasonable || nnz > maxReasonable {
		return nil, fmt.Errorf("sparse: implausible dims %dx%d nnz %d", nrows, ncols, nnz)
	}
	hasVal, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if hasVal > 1 {
		return nil, fmt.Errorf("sparse: bad hasVal byte %d", hasVal)
	}
	c := &CSR{nrows: int(nrows), ncols: int(ncols)}
	c.RowPtr = make([]int64, nrows+1)
	if err := binary.Read(br, binary.LittleEndian, c.RowPtr); err != nil {
		return nil, fmt.Errorf("sparse: reading RowPtr: %w", err)
	}
	c.Col = make([]uint32, nnz)
	if err := binary.Read(br, binary.LittleEndian, c.Col); err != nil {
		return nil, fmt.Errorf("sparse: reading Col: %w", err)
	}
	if hasVal == 1 {
		c.Val = make([]float64, nnz)
		if err := binary.Read(br, binary.LittleEndian, c.Val); err != nil {
			return nil, fmt.Errorf("sparse: reading Val: %w", err)
		}
		for _, v := range c.Val {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("sparse: NaN weight in stream")
			}
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("sparse: corrupt stream: %w", err)
	}
	return c, nil
}

// WriteFileAtomic replaces path with what write produces, or leaves it
// alone: the bytes go to a temporary file in path's directory, are synced to
// disk, and only then renamed over path, so neither a failing write nor a
// crash mid-save can destroy the previous file. On any error the temporary
// file is removed.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
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

// SaveCSR writes c to a file, atomically (see WriteFileAtomic).
func SaveCSR(path string, c *CSR) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return WriteCSR(w, c) })
}

// LoadCSR reads a CSR file written by SaveCSR.
func LoadCSR(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSR(f)
}
