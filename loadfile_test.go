package nwhy

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"nwhy/internal/gen"
	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
)

func sameHypergraph(t *testing.T, a, b *NWHypergraph) {
	t.Helper()
	if !a.hg().Edges.Equal(b.hg().Edges) || !a.hg().Nodes.Equal(b.hg().Nodes) {
		t.Fatal("hypergraphs differ")
	}
}

func writeSample(t *testing.T, dir string) (*NWHypergraph, string) {
	t.Helper()
	g := Wrap(gen.BipartitePowerLaw(120, 90, 800, 1.7, 11))
	path := filepath.Join(dir, "h.mtx")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	return g, path
}

func TestLoadFileFormatsAgree(t *testing.T) {
	dir := t.TempDir()
	g, mtx := writeSample(t, dir)

	text, err := LoadFile(mtx, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameHypergraph(t, g, text)

	// A one-worker engine is the single-threaded parse.
	one := parallel.NewEngine(1)
	defer one.Close()
	serial, err := LoadFile(mtx, LoadOptions{Engine: one})
	if err != nil {
		t.Fatal(err)
	}
	sameHypergraph(t, text, serial)

	snap := filepath.Join(dir, "h.nwhyb")
	if err := g.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	bin, err := LoadFile(snap, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameHypergraph(t, g, bin)

	// Load (the paper's graph_reader shim) auto-detects both encodings.
	viaLoad, err := Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	sameHypergraph(t, g, viaLoad)
}

// Detection sniffs the magic, not only the extension: a snapshot under a
// neutral name still decodes as a snapshot, and text under the snapshot
// extension fails rather than misparses.
func TestLoadFileDetection(t *testing.T) {
	dir := t.TempDir()
	g, mtx := writeSample(t, dir)

	disguised := filepath.Join(dir, "h.bin")
	if err := g.SaveSnapshot(disguised); err != nil {
		t.Fatal(err)
	}
	bin, err := LoadFile(disguised, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameHypergraph(t, g, bin)

	data, err := os.ReadFile(mtx)
	if err != nil {
		t.Fatal(err)
	}
	misnamed := filepath.Join(dir, "text.nwhyb")
	if err := os.WriteFile(misnamed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(misnamed, LoadOptions{}); err == nil {
		t.Fatal("text file decoded as snapshot")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.mtx"), LoadOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadFileBindsEngine(t *testing.T) {
	dir := t.TempDir()
	_, mtx := writeSample(t, dir)
	eng := parallel.NewEngine(2)
	defer eng.Close()
	g, err := LoadFile(mtx, LoadOptions{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if g.Engine() != eng {
		t.Fatal("handle not bound to the loading engine")
	}
	unbound, err := LoadFile(mtx, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if unbound.Engine() != SharedEngine() {
		t.Fatal("default handle not bound to the shared engine")
	}

	// The snapshot path must bind identically — internal/server's warm start
	// relies on LoadFile(path, LoadOptions{Engine: eng}).Engine() == eng
	// with no WithEngine copy afterwards.
	g2, _ := writeSample(t, dir)
	snap := filepath.Join(dir, "h.nwhyb")
	if err := g2.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	fromSnap, err := LoadFile(snap, LoadOptions{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if fromSnap.Engine() != eng {
		t.Fatal("snapshot-loaded handle not bound to the loading engine")
	}
	sameHypergraph(t, g2, fromSnap)
}

// A snapshot written by SaveSnapshot must survive deliberate truncation
// with an error, not a bad hypergraph.
func TestLoadFileRejectsTruncatedSnapshot(t *testing.T) {
	dir := t.TempDir()
	g, _ := writeSample(t, dir)
	snap := filepath.Join(dir, "h.nwhyb")
	if err := g.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(snap, LoadOptions{}); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestLoadFileStaysOnEngine pins LoadOptions.Engine over the whole load,
// the CSR build included: a load bound to a 1-worker engine hands the
// process-wide default pool nothing, and a load bound to a cancelled engine
// stops with its error, on the text path and on the snapshot path.
func TestLoadFileStaysOnEngine(t *testing.T) {
	dir := t.TempDir()
	g := Wrap(gen.Uniform(3000, 2000, 8, 3))
	mtx, snap := filepath.Join(dir, "u.mtx"), filepath.Join(dir, "u.nwhyb")
	if err := g.Save(mtx); err != nil {
		t.Fatal(err)
	}
	if err := g.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	eng := parallel.NewEngine(1)
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	def := parallel.Default()
	before := def.Submitted()
	for _, path := range []string{mtx, snap} {
		got, err := LoadFile(path, LoadOptions{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		sameHypergraph(t, g, got)
		if got, err := LoadFile(path, LoadOptions{Engine: eng.WithContext(ctx)}); !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("%s on a cancelled engine: handle %v, error %v", filepath.Base(path), got != nil, err)
		}
	}
	if n := def.Submitted() - before; n != 0 {
		t.Fatalf("the default pool received %d tasks during loads bound to a 1-worker engine", n)
	}
}

// A text load cancelled at any poll — the parser's count and scan phases,
// the gap closing behind a commented file, the build's transposes — returns
// the engine's error and no handle.
func TestLoadFileCancelledAtEveryPoll(t *testing.T) {
	dir := t.TempDir()
	g, mtx := writeSample(t, dir)
	data, err := os.ReadFile(mtx)
	if err != nil {
		t.Fatal(err)
	}
	commented := filepath.Join(dir, "commented.mtx")
	lines := bytes.SplitAfter(data, []byte{'\n'})
	for k := 3; k < len(lines); k += 40 {
		lines[k] = append([]byte("% a gap to close\n"), lines[k]...)
	}
	if err := os.WriteFile(commented, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := parallel.NewEngine(3)
	defer eng.Close()
	for _, path := range []string{mtx, commented} {
		paralleltest.CancelAtEveryPoll(t, eng, func(e *parallel.Engine) (*NWHypergraph, error) {
			return LoadFile(path, LoadOptions{Engine: e})
		}, func(got *NWHypergraph) error {
			if !got.hg().Edges.Equal(g.hg().Edges) || !got.hg().Nodes.Equal(g.hg().Nodes) {
				return errors.New("a different hypergraph")
			}
			return nil
		})
	}
}
