package robust

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"guardedop/internal/obs"
)

// BatchOptions tunes RunBatch.
type BatchOptions struct {
	// StopOnError aborts the batch at the first failed item instead of
	// the default skip-and-record behaviour. A StopOnError batch always
	// runs sequentially (Workers is ignored) so "nothing runs past the
	// first failure" stays exact.
	StopOnError bool
	// MinSuccessFraction in (0,1] makes RunBatch return an error wrapping
	// ErrTooManyFailures when fewer than this fraction of items succeed.
	// Zero disables the floor (any number of survivors is acceptable).
	MinSuccessFraction float64
	// Workers bounds how many items are evaluated concurrently: 0 (the
	// default) uses runtime.GOMAXPROCS(0), 1 runs the batch sequentially
	// in the calling goroutine, and any larger value is the pool size
	// (capped at the item count). Results, OK and the Report are
	// index-aligned and identical for every worker count — items must not
	// share mutable state through fn, but the batch layer itself never
	// reorders outcomes. Only the wall-clock spans vary between runs.
	Workers int
}

// workerCount resolves the configured pool size against the item count.
func (o BatchOptions) workerCount(items int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if o.StopOnError {
		w = 1
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ItemError records one failed batch item.
type ItemError struct {
	// Index is the item's position in the input slice.
	Index int
	// Err is the item's failure.
	Err error
}

// Report aggregates the per-item failures of one batch run.
type Report struct {
	// Total is the number of items submitted.
	Total int
	// Completed is the number of items that ran to success. In a batch
	// stopped early (StopOnError, cancellation) it can be smaller than
	// Total − len(Failures) would suggest, which is why it is tracked
	// explicitly.
	Completed int
	// Failures lists the failed items in input order.
	Failures []ItemError
	// Metrics.Retries is always 0: RunBatch invokes each item once. The
	// field stays because the perfbench module reads it. Every batch fact
	// is counted only through obs (see RunBatch).
	Metrics struct {
		Retries int64
	}
}

// Failed returns the number of failed items.
func (r *Report) Failed() int { return len(r.Failures) }

// Succeeded returns the number of items that ran to success.
func (r *Report) Succeeded() int { return r.Completed }

// Summary renders a compact human-readable account of the failures, one
// line per failed item, or "all N items succeeded".
func (r *Report) Summary() string {
	if len(r.Failures) == 0 {
		return fmt.Sprintf("all %d items succeeded", r.Total)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d items failed:", len(r.Failures), r.Total)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\n  item %d: %v", f.Index, f.Err)
	}
	return b.String()
}

// Err returns nil when every item succeeded, otherwise an error naming the
// failure count and wrapping the first per-item error.
func (r *Report) Err() error {
	if len(r.Failures) == 0 {
		return nil
	}
	first := r.Failures[0]
	return fmt.Errorf("robust: %d/%d batch items failed, first at %d: %w",
		len(r.Failures), r.Total, first.Index, first.Err)
}

// PartialResult carries a batch's successes alongside its failure report.
type PartialResult[R any] struct {
	// Results has one entry per input item, aligned by index; entries of
	// failed items hold the zero value.
	Results []R
	// OK[i] reports whether item i succeeded.
	OK []bool
	// Report records the failures.
	Report *Report
}

// Successes returns the successful results compacted in input order.
func (p *PartialResult[R]) Successes() []R {
	out := make([]R, 0, p.Report.Succeeded())
	for i, ok := range p.OK {
		if ok {
			out = append(out, p.Results[i])
		}
	}
	return out
}

// SuccessIndices returns the input indices of the successful items.
func (p *PartialResult[R]) SuccessIndices() []int {
	out := make([]int, 0, p.Report.Succeeded())
	for i, ok := range p.OK {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// itemState is one item's outcome, written by exactly one worker and read
// only after the pool has drained.
type itemState[R any] struct {
	res      R
	err      error
	panicked bool
	started  bool
}

// RunBatch runs fn over items on a bounded worker pool (see
// BatchOptions.Workers) with per-item panic recovery and cancellation
// between items. Each item is invoked once; a failed item is skipped and
// recorded in the report rather than aborting the batch (unless
// opts.StopOnError is set).
//
// The outcome is deterministic in everything but wall-clock: Results and
// OK are aligned with the input, Report.Failures is sorted by item index,
// and a given (items, fn, opts) produces the same successes and failures
// at every worker count. Cancellation marks every item that had not
// started when the context ended as ErrCanceled; items already in flight
// run to completion and keep their results.
//
// The returned PartialResult is never nil. The error is non-nil only when
// the batch as a whole is unusable: the context was canceled (wraps
// ErrCanceled), StopOnError hit a failure, or fewer than
// opts.MinSuccessFraction of the items survived (wraps ErrTooManyFailures).
// Per-item failures otherwise live only in the report.
func RunBatch[T, R any](ctx context.Context, items []T, fn func(ctx context.Context, item T) (R, error), opts BatchOptions) (*PartialResult[R], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.workerCount(len(items))
	ctx, bsp := obs.StartSpan(ctx, "robust.batch")
	defer bsp.End()
	bsp.SetInt("items", int64(len(items)))
	bsp.SetInt("workers", int64(workers))
	out := &PartialResult[R]{
		Results: make([]R, len(items)),
		OK:      make([]bool, len(items)),
		Report:  &Report{Total: len(items)},
	}

	states := make([]itemState[R], len(items))
	var (
		next    atomic.Int64
		stopped atomic.Bool // StopOnError tripped
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(items) {
				return
			}
			if ctx.Err() != nil || stopped.Load() {
				return
			}
			st := &states[i]
			st.started = true
			// Each worker goroutine starts, annotates and ends its own item
			// spans, honouring the span ownership rule; only the enclosing
			// batch span is shared, and workers never touch it.
			ictx, isp := obs.StartSpan(ctx, "robust.item")
			isp.SetInt("index", int64(i))
			st.res, st.err, st.panicked = runItem(ictx, items[i], fn)
			isp.End()
			if st.err != nil && opts.StopOnError {
				stopped.Store(true)
			}
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}

	// Aggregate in input order so Report.Failures comes out sorted by item
	// index regardless of completion order. The batch's counters are
	// tallied here and emitted once below, not once per item, so a
	// traced batch pays a handful of counter updates whatever its size.
	var panics int64
	errs := make(map[Class]int64)
	ctxErr := ctx.Err()
	ran := 0
	canceledItem := false
	for i := range states {
		st := &states[i]
		if !st.started {
			// Items a StopOnError batch never reached stay unrecorded (the
			// historical sequential contract); items a cancellation cut off
			// are accounted as canceled so the report stays complete.
			if ctxErr != nil {
				cerr := fmt.Errorf("%w: %v", ErrCanceled, ctxErr)
				errs[ClassCanceled]++
				out.Report.Failures = append(out.Report.Failures, ItemError{Index: i, Err: cerr})
				canceledItem = true
			}
			continue
		}
		ran++
		if st.panicked {
			panics++
		}
		if st.err != nil {
			errs[ErrorClass(st.err)]++
			if errors.Is(st.err, ErrCanceled) {
				canceledItem = true
			}
			out.Report.Failures = append(out.Report.Failures, ItemError{Index: i, Err: st.err})
			continue
		}
		out.Results[i] = st.res
		out.OK[i] = true
		out.Report.Completed++
	}
	obs.Count(ctx, obs.CtrAttempts, int64(ran))
	if panics > 0 {
		obs.Count(ctx, obs.CtrPanics, panics)
	}
	for class, n := range errs {
		obs.Count(ctx, obs.CtrErrorsPrefix+string(class), n)
	}

	if ctxErr != nil && canceledItem {
		return out, fmt.Errorf("robust: batch stopped after %d/%d items: %w (%v)",
			ran, len(items), ErrCanceled, ctxErr)
	}
	if opts.StopOnError && len(out.Report.Failures) > 0 {
		f := out.Report.Failures[0]
		return out, fmt.Errorf("robust: batch stopped at item %d: %w", f.Index, f.Err)
	}
	if f := opts.MinSuccessFraction; f > 0 && len(items) > 0 {
		if got := float64(out.Report.Succeeded()) / float64(len(items)); got < f {
			return out, fmt.Errorf("robust: only %d/%d items succeeded, need fraction %g: %w",
				out.Report.Succeeded(), len(items), f, ErrTooManyFailures)
		}
	}
	return out, nil
}

// runItem invokes fn on one item with panic recovery.
func runItem[T, R any](ctx context.Context, item T, fn func(context.Context, T) (R, error)) (res R, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	res, err = fn(ctx, item)
	return res, err, false
}
