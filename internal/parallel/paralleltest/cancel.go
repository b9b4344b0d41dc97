// Package paralleltest holds the test helpers that cancel an engine
// deterministically, shared by the packages whose kernels poll one.
package paralleltest

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"nwhy/internal/parallel"
)

// CountdownCtx is a context.Context whose Err starts reporting
// context.Canceled after the first n calls — a deterministic way to cancel
// an engine between two of a kernel's polls without timing races.
type CountdownCtx struct {
	context.Context
	left atomic.Int64
}

// NewCountdownCtx returns a context that lets n polls pass.
func NewCountdownCtx(n int64) *CountdownCtx {
	c := &CountdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *CountdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// Spare reports whether the countdown never ran out: every poll so far
// passed.
func (c *CountdownCtx) Spare() bool { return c.left.Load() >= 0 }

// CancelAtEveryPoll runs build under a context that starts reporting
// context.Canceled at its k-th poll, for every k until a run finishes
// without the countdown running out. Each run must return the engine's error and a zero result, or a
// result check accepts — never a half-filled one.
func CancelAtEveryPoll[T any](t *testing.T, base *parallel.Engine, build func(eng *parallel.Engine) (T, error), check func(T) error) {
	t.Helper()
	cancelled := 0
	for k := int64(0); ; k++ {
		if k > 1<<16 {
			t.Fatal("the build never stops polling")
		}
		ctx := NewCountdownCtx(k)
		got, err := build(base.WithContext(ctx))
		if err != nil {
			if !errors.Is(err, context.Canceled) || !reflect.ValueOf(&got).Elem().IsZero() {
				t.Fatalf("cancelled at poll %d: result %v, error %v; want the zero result and context.Canceled", k, got, err)
			}
			cancelled++
			continue
		}
		if err := check(got); err != nil {
			t.Fatalf("poll %d: build reported success with a wrong result: %v", k, err)
		}
		if ctx.Spare() {
			break // the build ran to the end inside its k polls: every poll has been the cancelling one
		}
	}
	if cancelled == 0 {
		t.Fatal("the build never polled its engine")
	}
	t.Logf("%d runs cancelled, one per poll", cancelled)
	got, err := build(base)
	if err == nil {
		err = check(got)
	}
	if err != nil {
		t.Fatalf("engine not reusable after the cancelled builds: %v", err)
	}
}
