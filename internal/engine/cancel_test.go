package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/linking"
	"github.com/stslib/sts/internal/model"
)

// slowScorer makes every pairwise score take delay, so a cancelled matrix
// that kept running would blow well past the test's deadline.
func slowScorer(delay time.Duration) eval.FuncScorer {
	return eval.FuncScorer{N: "slow", F: func(a, b model.Trajectory) (float64, error) {
		time.Sleep(delay)
		return 1, nil
	}}
}

// checkNoLeaks fails the test if the goroutine count has not returned to
// its starting level shortly after the cancelled call returns — the
// executor contract is that ForEach waits for its workers.
func checkNoLeaks(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutines leaked after cancellation: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// expectCancelled runs f with a context cancelled shortly after the call
// starts, and requires a prompt context.Canceled return with no leaked
// goroutines. The work is sized to take tens of seconds if cancellation
// were ignored.
func expectCancelled(t *testing.T, name string, f func(ctx context.Context) error) {
	t.Helper()
	leaks := checkNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := f(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("%s: err=%v, want context.Canceled", name, err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("%s: returned after %v, cancellation not prompt", name, elapsed)
	}
	leaks()
}

func cancelDataset(prefix string, n int) model.Dataset {
	ds := make(model.Dataset, n)
	for i := range ds {
		ds[i] = walk(fmt.Sprintf("%s-%d", prefix, i), float64(50+20*i), 100, 5, 10, 6)
	}
	return ds
}

func TestForEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := engine.ForEach(ctx, 100, 4, func(i int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err=%v", err)
	}
	if ran {
		t.Error("pre-cancelled context still ran work")
	}
}

func TestForEachDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := engine.ForEach(ctx, 1000, 4, func(i int) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err=%v, want deadline exceeded", err)
	}
}

func TestMatrixScoringCancellation(t *testing.T) {
	d1, d2 := cancelDataset("r", 40), cancelDataset("c", 40)
	s := slowScorer(5 * time.Millisecond) // 1600 pairs ≈ 8s serial if uncancelled
	expectCancelled(t, "ScoreMatrixContext", func(ctx context.Context) error {
		_, err := engine.ScoreMatrix(ctx, s, d1, d2, nil, math.Inf(-1), 2)
		return err
	})
}

func TestMatchingCancellation(t *testing.T) {
	d1, d2 := cancelDataset("r", 40), cancelDataset("c", 40)
	s := slowScorer(5 * time.Millisecond)
	expectCancelled(t, "MatchingContext", func(ctx context.Context) error {
		_, err := eval.MatchingContext(ctx, d1, d2, s, 2)
		return err
	})
}

func TestGreedyLinkCancellation(t *testing.T) {
	d1, d2 := cancelDataset("r", 40), cancelDataset("c", 40)
	s := slowScorer(5 * time.Millisecond)
	expectCancelled(t, "GreedyLinkContext", func(ctx context.Context) error {
		_, err := linking.GreedyLinkContext(ctx, d1, d2, s, linking.Options{})
		return err
	})
}

func TestOptimalLinkCancellation(t *testing.T) {
	d1, d2 := cancelDataset("r", 30), cancelDataset("c", 30)
	s := slowScorer(5 * time.Millisecond)
	expectCancelled(t, "OptimalLinkContext", func(ctx context.Context) error {
		_, err := linking.OptimalLinkContext(ctx, d1, d2, s, linking.Options{})
		return err
	})
}

func TestTopKCancellation(t *testing.T) {
	e, err := engine.New(slowScorer(5*time.Millisecond), engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range cancelDataset("c", 400) { // ≈ 2s of scoring if uncancelled
		if _, err := e.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	q := walk("q", 100, 100, 5, 10, 6)
	expectCancelled(t, "Engine.TopK", func(ctx context.Context) error {
		_, err := e.TopK(ctx, q, 5)
		return err
	})
}

func TestTopKDeadlineViaEngine(t *testing.T) {
	e, err := engine.New(slowScorer(5*time.Millisecond), engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range cancelDataset("c", 400) {
		if _, err := e.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	if _, err := e.TopK(ctx, walk("q", 100, 100, 5, 10, 6), 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err=%v, want deadline exceeded", err)
	}
}
