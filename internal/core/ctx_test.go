package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestExecutePlanCtxCancel asserts a cancelled context aborts execution on
// every scheme with ctx.Err(), both when cancelled up front and when the
// deadline has already expired.
func TestExecutePlanCtxCancel(t *testing.T) {
	fx, srcs := planFixture(t)
	p, err := PlanFor(Query{ID: Q3}, fx.cat.Consts)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range srcs {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, _, err := ExecutePlanCtx(ctx, src, p.Root, ExecOptions{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled context returned %v, want context.Canceled", name, err)
		}
		// An already-expired deadline must surface as DeadlineExceeded.
		dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		if _, _, _, err := ExecutePlanCtx(dctx, src, p.Root, ExecOptions{}); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: expired context returned %v, want context.DeadlineExceeded", name, err)
		}
		dcancel()
		// A live context still executes normally through the same path.
		if _, _, _, err := ExecutePlanCtx(context.Background(), src, p.Root, ExecOptions{}); err != nil {
			t.Errorf("%s: background context failed: %v", name, err)
		}
	}
}
