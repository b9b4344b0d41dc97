package sparse

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestCSRSerializeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nrows, ncols := 1+rng.Intn(40), 1+rng.Intn(40)
		var pairs []Edge
		seen := map[Edge]bool{}
		for i := 0; i < rng.Intn(300); i++ {
			e := Edge{U: uint32(rng.Intn(nrows)), V: uint32(rng.Intn(ncols))}
			if !seen[e] {
				seen[e] = true
				pairs = append(pairs, e)
			}
		}
		c := FromPairs(nrows, ncols, pairs, nil)
		var buf bytes.Buffer
		if WriteCSR(&buf, c) != nil {
			return false
		}
		back, err := ReadCSR(&buf)
		if err != nil {
			return false
		}
		return back.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRSerializeWeighted(t *testing.T) {
	c := FromPairs(2, 3, []Edge{{U: 0, V: 2}, {U: 1, V: 0}}, []float64{2.5, -7})
	var buf bytes.Buffer
	if err := WriteCSR(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Val == nil || back.RowVal(0)[0] != 2.5 || back.RowVal(1)[0] != -7 {
		t.Fatalf("weights lost: %v", back.Val)
	}
}

func TestCSRSerializeEmpty(t *testing.T) {
	c := FromPairs(0, 0, nil, nil)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 0 || back.NumEdges() != 0 {
		t.Fatal("empty round trip failed")
	}
}

func TestReadCSRRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTMAGIC........................"),
		"truncated": append([]byte("NWHYCSR1"), 1, 2, 3),
	}
	for name, data := range cases {
		if _, err := ReadCSR(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadCSRRejectsCorruptStructure(t *testing.T) {
	c := FromPairs(2, 2, []Edge{{U: 0, V: 1}, {U: 1, V: 0}}, nil)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, c); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt a column ID byte near the end (out-of-range column).
	data[len(data)-4] = 0xFF
	data[len(data)-3] = 0xFF
	if _, err := ReadCSR(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt column accepted")
	}
}

func TestSaveLoadCSRFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.csr")
	c := FromPairs(3, 3, []Edge{{U: 0, V: 2}, {U: 2, V: 1}}, nil)
	if err := SaveCSR(path, c); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c) {
		t.Fatal("file round trip differs")
	}
	if _, err := LoadCSR("/nonexistent/m.csr"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestWriteFileAtomicKeepsOldFileOnFailure: a writer that fails midway
// leaves the previous file byte-identical and no temporary file behind; a
// writer that succeeds replaces it.
func TestWriteFileAtomicKeepsOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.csr")
	if err := SaveCSR(path, FromPairs(3, 3, []Edge{{U: 0, V: 2}, {U: 2, V: 1}}, nil)); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err = WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half a file")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's", err)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, old) {
		t.Fatalf("previous file changed by a failed save (err=%v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d directory entries after a failed save, want only the old file", len(entries))
	}
	if err := SaveCSR(path, FromPairs(2, 2, []Edge{{U: 1, V: 0}}, nil)); err != nil {
		t.Fatal(err)
	}
	if back, err := LoadCSR(path); err != nil || back.NumRows() != 2 {
		t.Fatalf("successful save did not replace the file (err=%v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d directory entries after a save, want 1", len(entries))
	}
}
