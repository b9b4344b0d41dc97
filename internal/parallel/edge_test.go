package parallel

import (
	"reflect"
	"testing"
)

func TestFlattenTLSZeroContribution(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	tls := NewTLSFor[[]uint32](eng, nil)

	// Only one worker slot contributes; the untouched slots must neither
	// appear in the output nor reach the recycle callback.
	*tls.Get(2) = append(*tls.Get(2), 10, 11)

	var recycled []int
	out := FlattenTLS(nil, tls, func(w int, buf []uint32) {
		recycled = append(recycled, w)
	})
	if !reflect.DeepEqual(out, []uint32{10, 11}) {
		t.Fatalf("flatten = %v, want [10 11]", out)
	}
	if !reflect.DeepEqual(recycled, []int{2}) {
		t.Fatalf("recycled workers = %v, want [2]", recycled)
	}
	// The recycled slot is cleared so a stale buffer cannot alias later
	// rounds. Note Get marks the slot touched, so the emptied slice (not
	// absence) is what the next flatten sees.
	if got := *tls.Get(2); got != nil {
		t.Fatalf("slot 2 after recycle = %v, want nil", got)
	}
}

func TestFlattenTLSNoTouchedSlots(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	tls := NewTLSFor[[]uint32](eng, nil)
	called := false
	out := FlattenTLS(nil, tls, func(int, []uint32) { called = true })
	if len(out) != 0 {
		t.Fatalf("flatten of untouched TLS = %v, want empty", out)
	}
	if called {
		t.Fatal("recycle called for an untouched TLS")
	}
}

func TestFlattenTLSReusesDst(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	tls := NewTLSFor[[]uint32](eng, nil)
	*tls.Get(0) = append(*tls.Get(0), 1, 2, 3)
	dst := make([]uint32, 0, 64)
	out := FlattenTLS(dst, tls, nil)
	if !reflect.DeepEqual(out, []uint32{1, 2, 3}) {
		t.Fatalf("flatten = %v", out)
	}
	if &out[:1][0] != &dst[:1][0] {
		t.Fatal("flatten did not reuse dst's backing array")
	}
	// Without a recycle callback the slot keeps its contents.
	if got := *tls.Get(0); !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Fatalf("slot 0 = %v, want [1 2 3]", got)
	}
}
