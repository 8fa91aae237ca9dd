// Package parallel provides the bounded fan-out primitive behind the
// evaluation stack's concurrency: a fixed-size worker pool that runs n
// independent index-addressed tasks, cancels outstanding work on the
// first failure, and collects results in submission (index) order
// regardless of completion order. Determinism is the design constraint:
// every task receives its identity (and hence its seed or parameter)
// from its index alone, and results are merged by index, so output
// assembled from a Map is byte-identical whatever the worker count or
// scheduling.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: zero or negative selects
// runtime.NumCPU(), and the pool never holds more workers than tasks
// (nor fewer than one).
func Workers(requested, tasks int) int {
	w := requested
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines and returns the n results in index order, however the tasks
// interleaved. On failure it returns the error of the lowest-indexed
// task observed to fail (deterministic when a single task is at fault)
// after cancelling the context seen by the remaining tasks. A cancelled
// parent context surfaces as its ctx.Err() once in-flight tasks drain.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	return MapInto(ctx, make([]T, n), workers, fn)
}

// MapInto is Map writing the n := len(dst) results into the caller's dst,
// so loops that fan out repeatedly (the online repricer's ticks) can reuse
// one result buffer. dst is returned for convenience; on error its
// contents are unspecified.
func MapInto[T any](ctx context.Context, dst []T, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	n := len(dst)
	if n == 0 {
		return dst, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := dst
	if Workers(workers, n) == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu      sync.Mutex
		taskErr error
		errIdx  int
	)
	fail := func(i int, err error) {
		mu.Lock()
		if taskErr == nil || i < errIdx {
			taskErr, errIdx = err, i
		}
		mu.Unlock()
		cancel()
	}

	// Workers claim contiguous index chunks off a shared cursor: one
	// atomic add per chunk, where a channel send per index costs more
	// than a sub-microsecond task does. Sixty-four chunks per worker keep
	// the tail balanced when task costs vary, and fewer than 64 tasks per
	// worker — the coarse fan-outs, an experiment or a market per index —
	// degenerate to one index per claim.
	w := Workers(workers, n)
	grain := max(1, n/(64*w))
	var next atomic.Int64
	done := ctx.Done()
	work := func() {
		for {
			hi := int(next.Add(int64(grain)))
			lo := hi - grain
			if lo >= n {
				return
			}
			for i := lo; i < min(hi, n); i++ {
				select {
				case <-done:
					return // cancelled mid-chunk: the rest is skipped, not failed
				default:
				}
				v, err := fn(ctx, i)
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = v
			}
		}
	}
	// The caller is the last worker: it would otherwise sleep in Wait.
	var wg sync.WaitGroup
	for ; w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if taskErr != nil {
		return nil, taskErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
