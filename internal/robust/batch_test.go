package robust

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"guardedop/internal/obs"
)

// batchWorkers returns the resolved pool size a traced batch recorded on
// its robust.batch span.
func batchWorkers(t *testing.T, tr *obs.Tracer) int64 {
	t.Helper()
	for _, sp := range obs.Snapshot(tr, obs.Manifest{}).Spans {
		if sp.Name == "robust.batch" {
			return sp.Attrs["workers"].(int64)
		}
	}
	t.Fatal("trace has no robust.batch span")
	return 0
}

func TestRunBatchAllSucceed(t *testing.T) {
	items := []int{1, 2, 3, 4}
	pr, err := RunBatch(context.Background(), items, func(_ context.Context, v int) (int, error) {
		return v * v, nil
	}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pr.Successes(); len(got) != 4 || got[3] != 16 {
		t.Errorf("Successes() = %v", got)
	}
	if pr.Report.Failed() != 0 || pr.Report.Err() != nil {
		t.Errorf("report = %+v", pr.Report)
	}
	if pr.Report.Summary() != "all 4 items succeeded" {
		t.Errorf("Summary() = %q", pr.Report.Summary())
	}
}

func TestRunBatchSkipsAndRecordsFailures(t *testing.T) {
	boom := errors.New("boom")
	items := []int{0, 1, 2, 3, 4}
	pr, err := RunBatch(context.Background(), items, func(_ context.Context, v int) (int, error) {
		if v%2 == 1 {
			return 0, fmt.Errorf("item %d: %w", v, boom)
		}
		return v * 10, nil
	}, BatchOptions{})
	if err != nil {
		t.Fatalf("skip-and-record batch returned %v", err)
	}
	if pr.Report.Failed() != 2 || pr.Report.Succeeded() != 3 {
		t.Fatalf("report counts = %d failed / %d ok", pr.Report.Failed(), pr.Report.Succeeded())
	}
	if got := pr.SuccessIndices(); len(got) != 3 || got[0] != 0 || got[2] != 4 {
		t.Errorf("SuccessIndices() = %v", got)
	}
	if !errors.Is(pr.Report.Err(), boom) {
		t.Errorf("Report.Err() = %v, want wrapped boom", pr.Report.Err())
	}
	if pr.Report.Failures[0].Index != 1 || pr.Report.Failures[1].Index != 3 {
		t.Errorf("failure indices = %+v", pr.Report.Failures)
	}
}

func TestRunBatchStopOnError(t *testing.T) {
	calls := 0
	_, err := RunBatch(context.Background(), []int{1, 2, 3}, func(_ context.Context, v int) (int, error) {
		calls++
		if v == 2 {
			return 0, errors.New("fatal")
		}
		return v, nil
	}, BatchOptions{StopOnError: true})
	if err == nil {
		t.Fatal("StopOnError batch returned nil error")
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (stopped at first failure)", calls)
	}
}

func TestRunBatchPanicRecovery(t *testing.T) {
	pr, err := RunBatch(context.Background(), []int{1, 2, 3}, func(_ context.Context, v int) (int, error) {
		if v == 2 {
			panic("index out of range")
		}
		return v, nil
	}, BatchOptions{Retries: 3, Retryable: func(error) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Report.Failed() != 1 {
		t.Fatalf("report = %+v", pr.Report)
	}
	f := pr.Report.Failures[0]
	if !errors.Is(f.Err, ErrPanic) {
		t.Errorf("panic not classified: %v", f.Err)
	}
	if f.Attempts != 1 {
		t.Errorf("panicked item retried: attempts = %d, want 1", f.Attempts)
	}
}

func TestRunBatchRetryTransient(t *testing.T) {
	transient := errors.New("transient")
	attempts := 0
	pr, err := RunBatch(context.Background(), []int{1}, func(_ context.Context, v int) (int, error) {
		attempts++
		if attempts < 3 {
			return 0, transient
		}
		return 42, nil
	}, BatchOptions{Retries: 2, Retryable: func(err error) bool { return errors.Is(err, transient) }})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 || !pr.OK[0] || pr.Results[0] != 42 {
		t.Errorf("attempts = %d, result = %+v", attempts, pr)
	}
}

func TestRunBatchRetryExhausted(t *testing.T) {
	transient := errors.New("transient")
	pr, err := RunBatch(context.Background(), []int{1}, func(_ context.Context, v int) (int, error) {
		return 0, transient
	}, BatchOptions{Retries: 2, Retryable: func(err error) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	if got := pr.Report.Failures[0].Attempts; got != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

func TestRunBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pr, err := RunBatch(ctx, []int{1, 2, 3, 4}, func(_ context.Context, v int) (int, error) {
		if v == 2 {
			cancel()
		}
		return v, nil
	}, BatchOptions{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled batch returned %v, want ErrCanceled", err)
	}
	// Items 1 and 2 ran before the cancellation was observed; 3 and 4 are
	// recorded as canceled.
	if pr.Report.Succeeded() != 2 || pr.Report.Failed() != 2 {
		t.Errorf("report counts = %d ok / %d failed", pr.Report.Succeeded(), pr.Report.Failed())
	}
	for _, f := range pr.Report.Failures {
		if !errors.Is(f.Err, ErrCanceled) {
			t.Errorf("remaining item %d error = %v, want ErrCanceled", f.Index, f.Err)
		}
	}
}

func TestRunBatchMinSuccessFraction(t *testing.T) {
	fail := errors.New("bad draw")
	fn := func(_ context.Context, v int) (int, error) {
		if v < 6 {
			return 0, fail
		}
		return v, nil
	}
	items := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9} // 4 of 10 succeed
	pr, err := RunBatch(context.Background(), items, fn, BatchOptions{MinSuccessFraction: 0.5})
	if !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
	if pr.Report.Succeeded() != 4 {
		t.Errorf("succeeded = %d", pr.Report.Succeeded())
	}
	if _, err := RunBatch(context.Background(), items, fn, BatchOptions{MinSuccessFraction: 0.4}); err != nil {
		t.Fatalf("40%% floor rejected 40%% survival: %v", err)
	}
}

// TestRunBatchParallelMatchesSequential locks the determinism contract:
// the same items, fn and failure pattern produce identical Results, OK
// and Report at every worker count.
func TestRunBatchParallelMatchesSequential(t *testing.T) {
	transient := errors.New("transient")
	hard := errors.New("hard failure")
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	mkFn := func() func(context.Context, int) (int, error) {
		var mu sync.Mutex
		tries := make(map[int]int)
		return func(_ context.Context, v int) (int, error) {
			mu.Lock()
			tries[v]++
			n := tries[v]
			mu.Unlock()
			switch {
			case v%7 == 3:
				return 0, fmt.Errorf("item %d: %w", v, hard)
			case v%5 == 2 && n == 1:
				return 0, fmt.Errorf("item %d: %w", v, transient)
			}
			return v * v, nil
		}
	}
	opts := BatchOptions{Retries: 2, Retryable: func(err error) bool { return errors.Is(err, transient) }}

	opts.Workers = 1
	seq, seqErr := RunBatch(context.Background(), items, mkFn(), opts)
	for _, workers := range []int{2, 4, 16} {
		opts.Workers = workers
		par, parErr := RunBatch(context.Background(), items, mkFn(), opts)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("workers=%d error mismatch: %v vs %v", workers, seqErr, parErr)
		}
		if !reflect.DeepEqual(seq.Results, par.Results) || !reflect.DeepEqual(seq.OK, par.OK) {
			t.Errorf("workers=%d results diverge", workers)
		}
		if seq.Report.Completed != par.Report.Completed || len(seq.Report.Failures) != len(par.Report.Failures) {
			t.Fatalf("workers=%d report counts diverge: %s vs %s",
				workers, seq.Report.Summary(), par.Report.Summary())
		}
		for i, f := range par.Report.Failures {
			sf := seq.Report.Failures[i]
			if f.Index != sf.Index || f.Attempts != sf.Attempts || f.Err.Error() != sf.Err.Error() {
				t.Errorf("workers=%d failure[%d] = %+v, want %+v", workers, i, f, sf)
			}
		}
		if !sort.SliceIsSorted(par.Report.Failures, func(i, j int) bool {
			return par.Report.Failures[i].Index < par.Report.Failures[j].Index
		}) {
			t.Errorf("workers=%d failures not sorted by index", workers)
		}
	}
}

// TestRunBatchParallelRunsConcurrently proves the pool actually runs
// items at the configured width: every item blocks until all four are in
// flight, which deadlocks unless four workers run them together.
func TestRunBatchParallelRunsConcurrently(t *testing.T) {
	var barrier sync.WaitGroup
	barrier.Add(4)
	tr := obs.NewTracer()
	pr, err := RunBatch(obs.WithTracer(context.Background(), tr), []int{0, 1, 2, 3}, func(_ context.Context, v int) (int, error) {
		barrier.Done()
		barrier.Wait()
		return v, nil
	}, BatchOptions{Workers: 4})
	if err != nil || pr.Report.Succeeded() != 4 {
		t.Fatalf("concurrent batch: err=%v report=%s", err, pr.Report.Summary())
	}
	if got := batchWorkers(t, tr); got != 4 {
		t.Errorf("resolved workers = %d, want 4", got)
	}
}

// TestRunBatchCancelDuringRetry covers the mid-retry cancellation path: a
// context canceled from inside fn between attempts must record the item
// as canceled (not as an ordinary solver failure) and stop the batch with
// the same remaining-items-canceled accounting as the pre-item check.
func TestRunBatchCancelDuringRetry(t *testing.T) {
	transient := errors.New("transient solver wobble")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempts := 0
	pr, err := RunBatch(ctx, []int{10, 20, 30}, func(_ context.Context, v int) (int, error) {
		if v == 20 {
			attempts++
			cancel() // dies mid-item; a retry would otherwise follow
			return 0, transient
		}
		return v, nil
	}, BatchOptions{Retries: 3, Retryable: func(err error) bool { return errors.Is(err, transient) }})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("batch error = %v, want ErrCanceled", err)
	}
	if attempts != 1 {
		t.Errorf("canceled item retried anyway: attempts = %d", attempts)
	}
	if pr.Report.Succeeded() != 1 || pr.Report.Failed() != 2 {
		t.Fatalf("report counts = %d ok / %d failed, want 1/2: %s",
			pr.Report.Succeeded(), pr.Report.Failed(), pr.Report.Summary())
	}
	interrupted := pr.Report.Failures[0]
	if interrupted.Index != 1 || !errors.Is(interrupted.Err, ErrCanceled) {
		t.Errorf("interrupted item not recorded as canceled: %+v", interrupted)
	}
	if !errors.Is(interrupted.Err, transient) {
		t.Errorf("interrupted item lost its triggering error: %v", interrupted.Err)
	}
	remaining := pr.Report.Failures[1]
	if remaining.Index != 2 || !errors.Is(remaining.Err, ErrCanceled) || remaining.Attempts != 0 {
		t.Errorf("remaining item not accounted as canceled: %+v", remaining)
	}
}

// TestRunBatchParallelCancellation checks the canceled accounting stays
// complete under a real pool: every item is either a success, a recorded
// failure, or a recorded cancellation.
func TestRunBatchParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items := make([]int, 32)
	for i := range items {
		items[i] = i
	}
	pr, err := RunBatch(ctx, items, func(c context.Context, v int) (int, error) {
		if v == 3 {
			cancel()
		}
		return v, nil
	}, BatchOptions{Workers: 4})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := pr.Report.Completed + pr.Report.Failed(); got != len(items) {
		t.Errorf("accounting incomplete: %d completed + %d failed != %d items",
			pr.Report.Completed, pr.Report.Failed(), len(items))
	}
	for _, f := range pr.Report.Failures {
		if !errors.Is(f.Err, ErrCanceled) {
			t.Errorf("item %d failure is not a cancellation: %v", f.Index, f.Err)
		}
	}
}

// TestRunBatchStopOnErrorIgnoresWorkers: a StopOnError batch runs
// sequentially whatever Workers says, so nothing runs past the failure.
func TestRunBatchStopOnErrorIgnoresWorkers(t *testing.T) {
	var calls atomic.Int64
	tr := obs.NewTracer()
	_, err := RunBatch(obs.WithTracer(context.Background(), tr), []int{0, 1, 2, 3, 4, 5, 6, 7}, func(_ context.Context, v int) (int, error) {
		calls.Add(1)
		if v == 2 {
			return 0, errors.New("fatal")
		}
		return v, nil
	}, BatchOptions{StopOnError: true, Workers: 8})
	if err == nil {
		t.Fatal("StopOnError batch returned nil error")
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("calls = %d, want 3 (nothing past the first failure)", got)
	}
	if got := batchWorkers(t, tr); got != 1 {
		t.Errorf("StopOnError pool size = %d, want 1", got)
	}
}

func TestRunBatchEmpty(t *testing.T) {
	pr, err := RunBatch(context.Background(), nil, func(_ context.Context, v int) (int, error) {
		return v, nil
	}, BatchOptions{MinSuccessFraction: 0.5})
	if err != nil || pr.Report.Total != 0 {
		t.Fatalf("empty batch: %v, %+v", err, pr.Report)
	}
}

// TestRunBatchCollectsMetrics pins the counters a batch reports through
// obs — attempts, retries, recovered panics and failed items by class —
// and proves them identical at every worker count. The batch has a
// clean item, an ill-conditioned failure, a panic, a transient failure
// retried until its budget runs out, and a tail that a cancellation
// leaves unstarted.
func TestRunBatchCollectsMetrics(t *testing.T) {
	transient := errors.New("transient")
	const head = 4 // items 0..3 run; items 4 and 5 are the canceled tail
	run := func(workers int) map[string]int64 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		tr := obs.NewTracer()
		var finished atomic.Int64
		// settle is each head item's last step before it returns: the last
		// one to finish cancels the batch. On a parallel pool every head
		// item also waits for that cancellation, so no worker can free
		// itself early and start a tail item.
		settle := func() {
			if finished.Add(1) == head {
				cancel()
			}
			if workers > 1 {
				<-ctx.Done()
			}
		}
		attempts3 := 0
		pr, err := RunBatch(obs.WithTracer(ctx, tr), []int{0, 1, 2, 3, 4, 5}, func(_ context.Context, v int) (int, error) {
			switch v {
			case 0:
				settle()
				return v, nil
			case 1:
				settle()
				return 0, fmt.Errorf("v=1: %w", ErrIllConditioned)
			case 2:
				settle()
				panic("boom")
			case 3:
				if attempts3++; attempts3 == 3 {
					settle()
				}
				return 0, fmt.Errorf("v=3: %w", transient)
			}
			t.Errorf("workers=%d: tail item %d ran after the cancellation", workers, v)
			return v, nil
		}, BatchOptions{Retries: 2, Retryable: func(err error) bool { return errors.Is(err, transient) }, Workers: workers})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		if got := pr.Report.Metrics.Retries; got != 2 {
			t.Errorf("workers=%d: report retries = %d, want 2", workers, got)
		}
		if got := batchWorkers(t, tr); got != int64(workers) {
			t.Errorf("robust.batch workers attr = %d, want %d", got, workers)
		}
		return tr.Counters()
	}
	// Item 3 is retried twice after its first attempt: 1+1+1+3 attempts;
	// the unstarted tail counts as two canceled items and no attempts.
	want := map[string]int64{
		obs.CtrAttempts: 6,
		obs.CtrRetries:  2,
		obs.CtrPanics:   1,
		obs.CtrErrorsPrefix + string(ClassIllConditioned): 1,
		obs.CtrErrorsPrefix + string(ClassPanic):          1,
		obs.CtrErrorsPrefix + string(ClassOther):          1,
		obs.CtrErrorsPrefix + string(ClassCanceled):       2,
	}
	for _, workers := range []int{1, 4} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: counters = %v, want %v", workers, got, want)
		}
	}
}
