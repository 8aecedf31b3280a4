package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment cells of a sweep are independent, deterministic
// simulations: each Run builds its own kernel, heap, and RNG from the
// cell's seed, takes a machine in its just-built state from hw's free list,
// and shares no mutable state with any other run. RunCells
// exploits that by fanning cells across host cores; because seeding is
// per-cell and results are written back by input index, the output is
// bit-identical to a sequential loop regardless of worker count or
// completion order.

// defaultJobs is the package-wide worker budget used by every sweep in
// this package (the CLIs' -jobs flag sets it via SetJobs).
var defaultJobs atomic.Int64

func init() { defaultJobs.Store(int64(runtime.NumCPU())) }

// SetJobs sets the worker budget used by the sweeps in this package.
// Values below 1 select one worker.
func SetJobs(n int) {
	if n < 1 {
		n = 1
	}
	defaultJobs.Store(int64(n))
}

// Jobs returns the current sweep worker budget.
func Jobs() int { return int(defaultJobs.Load()) }

// RunCells executes the cells on a pool of jobs workers (at least one)
// and returns the results in input order; a single worker runs the cells
// in input order. Each cell's result is identical to what a sequential
// Run(cell) produces (the determinism test pins this). On failure the
// first error in cell order is returned; remaining cells still run to
// completion.
func RunCells(cells []Cell, jobs int) ([]CellResult, error) {
	out := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	meter := newProgressMeter(len(cells))
	// Concurrency audit: the only cross-worker state is the atomic claim
	// cursor; out/errs are written at distinct claimed indices, and
	// wg.Wait is the release barrier before anyone reads them.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(max(jobs, 1), len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				res, err := Run(cells[i])
				out[i] = CellResult{Cell: cells[i], Res: res}
				errs[i] = err
				meter.tick()
			}
		}()
	}
	wg.Wait()
	meter.finish()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", cells[i].App, cells[i].System, err)
		}
	}
	return out, nil
}

// runCells is RunCells with the package-wide worker budget.
func runCells(cells []Cell) ([]CellResult, error) { return RunCells(cells, Jobs()) }
