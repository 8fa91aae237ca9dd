package e2e

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"tieredpricing/bench/gen"
)

// Eval is a segment of the batch_eval stage: the paper-reproduction user
// running `tiersim -seed 1 run all` as a subprocess, one run after
// another: if serial is set, once at -parallel 1, then runs times at
// -parallel nproc. Every run must print the same bytes; Out.Digest is their
// sha256, for the caller to compare across segments. Once budget has
// passed no further run starts, so a stalled box costs the benchmark
// samples and not its deadline.
func Eval(ctx context.Context, env Env, runs int, serial bool, budget time.Duration) (Out, error) {
	o := newOut()
	deadline := time.Now().Add(budget)
	run := func(parallel int) (seconds, cpuSeconds float64, digest string, err error) {
		ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, filepath.Join(env.Bin, "tiersim"),
			"-seed", strconv.Itoa(gen.EvalSeed), "-parallel", strconv.Itoa(parallel), "run", "all")
		start := time.Now()
		out, err := cmd.Output()
		seconds = time.Since(start).Seconds()
		if err != nil {
			return 0, 0, "", fmt.Errorf("tiersim -parallel %d: %w", parallel, err)
		}
		cpuSeconds = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
		sum := sha256.Sum256(out)
		return seconds, cpuSeconds, hex.EncodeToString(sum[:]), nil
	}
	var widths []int
	if serial {
		widths = append(widths, 1)
	}
	for i := 0; i < runs; i++ {
		widths = append(widths, env.Procs)
	}
	for _, width := range widths {
		if width != 1 && len(o.Series["eval_s"]) > 0 && time.Now().After(deadline) {
			break
		}
		s, cpu, got, err := run(width)
		o.Attempted++
		if err != nil {
			return o, err
		}
		if o.Digest == "" {
			o.Digest = got
		}
		if got != o.Digest {
			o.Failed++
			o.problemf("batch_eval: a run at -parallel %d printed sha256 %s, the first run %s", width, got, o.Digest)
		}
		if width == 1 {
			o.Series["eval_serial_s"] = append(o.Series["eval_serial_s"], s)
		} else {
			o.Series["eval_s"] = append(o.Series["eval_s"], s)
			o.Series["eval_cpu_s"] = append(o.Series["eval_cpu_s"], cpu)
		}
	}
	return o, nil
}
