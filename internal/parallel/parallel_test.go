package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	cases := []struct {
		requested, tasks, want int
	}{
		{0, 100, runtime.NumCPU()},
		{-3, 100, runtime.NumCPU()},
		{4, 100, 4},
		{4, 2, 2},
		{8, 0, 1},
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.tasks); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.tasks, got, c.want)
		}
	}
	// The NumCPU default still caps at the task count.
	if got := Workers(0, 1); got != 1 {
		t.Errorf("Workers(0, 1) = %d, want 1", got)
	}
}

func TestMapCollectsInIndexOrder(t *testing.T) {
	n := 64
	out, err := Map(context.Background(), n, 8, func(_ context.Context, i int) (int, error) {
		if i%7 == 0 {
			time.Sleep(time.Millisecond) // shuffle completion order
		}
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d results, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapZeroTasks(t *testing.T) {
	out, err := Map(context.Background(), 0, 4, func(_ context.Context, i int) (int, error) {
		t.Error("fn called for n = 0")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Fatalf("Map(0 tasks) = %v, %v; want nil, nil", out, err)
	}
}

// TestPoolSaturation asserts the pool actually bounds concurrency at the
// worker count — and reaches it — by tracking the high-water mark of
// simultaneously running tasks through a rendezvous barrier.
func TestPoolSaturation(t *testing.T) {
	const workers, n = 4, 32
	var running, peak atomic.Int64
	var reached sync.WaitGroup
	reached.Add(workers)
	var once sync.Once
	release := make(chan struct{})
	_, err := Map(context.Background(), n, workers, func(_ context.Context, i int) (int, error) {
		cur := running.Add(1)
		defer running.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		if i < workers {
			// The first `workers` indices rendezvous: they all must be in
			// flight at once, proving the pool saturates. (Index feeding is
			// ordered, so indices 0..workers-1 land on distinct workers.)
			reached.Done()
			once.Do(func() {
				go func() {
					reached.Wait()
					close(release)
				}()
			})
			<-release
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds worker bound %d", p, workers)
	} else if p < workers {
		t.Errorf("peak concurrency %d never saturated %d workers", p, workers)
	}
	if r := running.Load(); r != 0 {
		t.Errorf("%d tasks still marked running after return", r)
	}
}

// TestErrorShortCircuit asserts the first failure cancels the context
// seen by in-flight tasks and prevents queued tasks from starting.
func TestErrorShortCircuit(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	var cancelled atomic.Int64
	const n = 1000
	_, err := Map(context.Background(), n, 4, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		// Tasks already in flight observe the cancellation instead of
		// running to their (slow) completion.
		select {
		case <-ctx.Done():
			cancelled.Add(1)
			return 0, nil
		case <-time.After(5 * time.Second):
			return i, nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if s := started.Load(); s == n {
		t.Error("every task started despite the short-circuit")
	}
	if cancelled.Load() == 0 && started.Load() > 1 {
		t.Error("no in-flight task observed the cancellation")
	}
}

// TestLowestIndexErrorWins: when several tasks fail, the reported error
// is the lowest-indexed failure observed, deterministically for the
// common one-bad-input case.
func TestLowestIndexErrorWins(t *testing.T) {
	var gate sync.WaitGroup
	gate.Add(2)
	_, err := Map(context.Background(), 8, 2, func(_ context.Context, i int) (int, error) {
		if i < 2 {
			// Both failing tasks are in flight before either reports, so
			// index 0 must win however the scheduler orders them.
			gate.Done()
			gate.Wait()
			return 0, fmt.Errorf("task %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "task 0 failed" {
		t.Fatalf("err = %v, want task 0's error", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 1000
	errc := make(chan error, 1)
	go func() {
		_, err := Map(ctx, n, 4, func(ctx context.Context, i int) (int, error) {
			started.Add(1)
			<-ctx.Done()
			return i, nil
		})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not return after cancellation")
	}
	if s := started.Load(); s == n {
		t.Error("cancellation did not stop the index feed")
	}
}

func TestSerialPathRespectsPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 10, 1, func(_ context.Context, i int) (int, error) {
		t.Error("fn ran under a cancelled context")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSerialAndParallelAgree(t *testing.T) {
	fn := func(_ context.Context, i int) (float64, error) {
		// A float fold stand-in: value depends only on the index.
		return float64(i*i) / 3.0, nil
	}
	serial, err := Map(context.Background(), 100, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, runtime.NumCPU()} {
		par, err := Map(context.Background(), 100, w, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", w, i, par[i], serial[i])
			}
		}
	}
}

func TestMapNilContext(t *testing.T) {
	var count atomic.Int64
	if _, err := Map(nil, 5, 3, func(ctx context.Context, i int) (int, error) { //nolint:staticcheck
		if ctx == nil {
			return 0, errors.New("nil ctx passed to task")
		}
		count.Add(1)
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 5 {
		t.Errorf("ran %d tasks, want 5", count.Load())
	}
}

// BenchmarkMapIntoFine is the resolve fan-out's shape: 20 000 tasks of
// about 250 ns each (a short dependent float chain, like two GeoIP trie
// walks and a haversine). The NumCPU row must beat the workers=1 row, or
// the fan-out is dispatch overhead and nothing else.
func BenchmarkMapIntoFine(b *testing.B) {
	task := func(_ context.Context, i int) (float64, error) {
		x := float64(i%97) + 1.5
		for k := 0; k < 40; k++ {
			x = math.Sqrt(x*x+float64(k)) + 0.25
		}
		return x, nil
	}
	dst := make([]float64, 20000)
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MapInto(context.Background(), dst, workers, task); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMapIntoChunkedIndexOrder: whatever chunk an index is claimed in,
// its result lands at its own position — at one task, fewer tasks than
// workers, and sizes where a chunk spans many indices.
func TestMapIntoChunkedIndexOrder(t *testing.T) {
	const workers = 4
	for _, n := range []int{1, workers - 1, 1000, 20000} {
		dst := make([]int, n)
		var calls atomic.Int64
		out, err := MapInto(context.Background(), dst, workers, func(_ context.Context, i int) (int, error) {
			calls.Add(1)
			return 3*i + 1, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if int(calls.Load()) != n {
			t.Fatalf("n=%d: %d calls, want one per index", n, calls.Load())
		}
		for i, v := range out {
			if v != 3*i+1 {
				t.Fatalf("n=%d: out[%d] = %d, want %d", n, i, v, 3*i+1)
			}
		}
	}
}

// TestLowestIndexErrorWinsAcrossChunks: two failing tasks far enough
// apart to sit in different chunks, both in flight before either
// reports; the lower index's error is the one returned.
func TestLowestIndexErrorWinsAcrossChunks(t *testing.T) {
	const n, workers = 20000, 2
	grain := n / (64 * workers)
	lo, hi := 3, grain+5 // chunk 0 and chunk 1: the first claim of each worker
	var gate sync.WaitGroup
	gate.Add(2)
	_, err := Map(context.Background(), n, workers, func(_ context.Context, i int) (int, error) {
		if i == lo || i == hi {
			gate.Done()
			gate.Wait()
			return 0, fmt.Errorf("task %d failed", i)
		}
		return i, nil
	})
	if want := fmt.Sprintf("task %d failed", lo); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestCancellationStopsMidChunk: a failure cancels the fan-out, and a
// worker in the middle of a many-index chunk must notice before its next
// task rather than finish the chunk.
func TestCancellationStopsMidChunk(t *testing.T) {
	const n, workers = 20000, 2
	grain := n / (64 * workers)
	boom := errors.New("boom")
	var started atomic.Int64
	_, err := Map(context.Background(), n, workers, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		switch i {
		case 0:
			return 0, boom
		case grain: // the other worker's first task: in flight until the cancel lands
			<-ctx.Done()
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The failing worker stops at once and the other after the task it
	// was in; neither goes on through its chunk.
	if s := started.Load(); s > 2 {
		t.Errorf("%d tasks started around a failure at index 0, want at most 2", s)
	}
}

// TestCoarseFanOutClaimsSingleIndices: below 64 tasks per worker — the
// experiment engine's fan-outs, where one task is a whole experiment —
// every claim is one index, so two adjacent slow tasks never serialize
// on one worker. Task 0 can only finish once task 1 has started, which
// needs a second worker to have claimed index 1 on its own.
func TestCoarseFanOutClaimsSingleIndices(t *testing.T) {
	oneStarted := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := Map(context.Background(), 63, 2, func(ctx context.Context, i int) (int, error) {
			switch i {
			case 0:
				select {
				case <-oneStarted:
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			case 1:
				close(oneStarted)
			}
			return i, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("indices 0 and 1 were claimed as one chunk: task 0 never saw task 1 start")
	}
}
