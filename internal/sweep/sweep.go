// Package sweep is the parallel experiment engine behind the repository's
// figure and table drivers. Every evaluation element is a grid of
// independent cells — capacitor bank × load profile × estimator × trial —
// and each cell is one isolated powersys simulation, so the sweep is
// embarrassingly parallel. The engine runs cells on a bounded worker pool
// while keeping the result order (and therefore every rendered table)
// byte-identical to the serial path; the golden-file suite in internal/expt
// enforces that invariant at workers=1, 4 and NumCPU.
//
// Rules for cell functions:
//
//   - a cell owns everything it mutates: its *powersys.System, its
//     *rand.Rand, its policies and devices. Shared inputs (configs, power
//     models, part catalogues) must be treated as read-only.
//   - cells must not communicate; the only output is the return value.
//   - determinism comes from seeding by cell index, never from scheduling.
//
// Worker count resolves in priority order: the Workers option on the call,
// the value carried by WithWorkers on the context, then GOMAXPROCS.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Grid is a rectangular index space of experiment cells: the cartesian
// product of its dimensions, enumerated row-major (the last dimension
// varies fastest), exactly like the nested loops it replaces.
type Grid struct {
	dims []int
	size int
}

// NewGrid builds a grid from dimension extents. A zero-dimension grid has
// one cell; any non-positive extent yields an empty grid.
func NewGrid(dims ...int) Grid {
	size := 1
	for _, d := range dims {
		if d <= 0 {
			return Grid{dims: append([]int(nil), dims...), size: 0}
		}
		size *= d
	}
	return Grid{dims: append([]int(nil), dims...), size: size}
}

// Of is shorthand for the 1-D grid over n items.
func Of(n int) Grid { return NewGrid(n) }

// Size returns the number of cells.
func (g Grid) Size() int { return g.size }

// Coords converts a flat cell index to per-dimension coordinates.
func (g Grid) Coords(index int) []int {
	out := make([]int, len(g.dims))
	for i := len(g.dims) - 1; i >= 0; i-- {
		out[i] = index % g.dims[i]
		index /= g.dims[i]
	}
	return out
}

// Cell identifies one unit of work inside a grid.
type Cell struct {
	Index  int   // flat index in [0, grid.Size())
	Coords []int // per-dimension coordinates, one per NewGrid extent
}

// options collects per-call tuning.
type options struct {
	workers int
}

// Option tunes one Run/Map call.
type Option func(*options)

// Workers bounds the worker pool for this call. n < 1 means "use the
// context / GOMAXPROCS default".
func Workers(n int) Option { return func(o *options) { o.workers = n } }

type ctxKey struct{}

// WithWorkers returns a context carrying a default worker count for every
// sweep launched under it — how the CLIs' -workers flag reaches the
// drivers without threading a parameter through every signature.
func WithWorkers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, ctxKey{}, n)
}

// WorkersFromContext reports the worker count carried by ctx, or 0.
func WorkersFromContext(ctx context.Context) int {
	if n, ok := ctx.Value(ctxKey{}).(int); ok {
		return n
	}
	return 0
}

func resolveWorkers(ctx context.Context, o options, cells int) int {
	n := o.workers
	if n < 1 {
		n = WorkersFromContext(ctx)
	}
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > cells {
		n = cells
	}
	if n < 1 {
		n = 1
	}
	return n
}

// CellError wraps a cell's failure with its position so a sweep over
// hundreds of configurations names the one that broke.
type CellError struct {
	Index  int
	Coords []int
	Err    error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("sweep: cell %d %v: %v", e.Index, e.Coords, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// Run executes fn once per grid cell on a bounded worker pool and returns
// the results indexed by cell — out[i] is fn's value for cell i, so the
// output is independent of scheduling. The first failing cell (lowest
// index, deterministically — not first in wall-clock) is returned as a
// *CellError and cancels the remaining cells. A panicking cell is recovered
// and surfaced the same way. Run honours ctx: cancellation stops new cells
// from starting and is returned as ctx.Err().
func Run[T any](ctx context.Context, g Grid, fn func(ctx context.Context, c Cell) (T, error), opts ...Option) ([]T, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	n := g.Size()
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers := resolveWorkers(ctx, o, n)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n) // per-cell, so error choice is deterministic
	var wg sync.WaitGroup
	next := make(chan int)

	cell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &CellError{Index: i, Coords: g.Coords(i), Err: fmt.Errorf("panic: %v", r)}
				cancel()
			}
		}()
		v, err := fn(ctx, Cell{Index: i, Coords: g.Coords(i)})
		if err != nil {
			errs[i] = &CellError{Index: i, Coords: g.Coords(i), Err: err}
			cancel()
			return
		}
		out[i] = v
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cell(i)
			}
		}()
	}

feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	// Prefer the lowest-index root-cause failure: cells that merely noticed
	// the cancellation triggered by another cell's error are secondary.
	var secondary error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if secondary == nil {
				secondary = err
			}
			continue
		}
		return out, err
	}
	if secondary != nil {
		return out, secondary
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// Map runs fn over a slice with bounded concurrency, preserving order:
// out[i] corresponds to items[i]. It is the 1-D convenience form of Run.
func Map[I, O any](ctx context.Context, items []I, fn func(ctx context.Context, index int, item I) (O, error), opts ...Option) ([]O, error) {
	return Run(ctx, Of(len(items)), func(ctx context.Context, c Cell) (O, error) {
		return fn(ctx, c.Index, items[c.Index])
	}, opts...)
}

// MapChunks partitions items into contiguous chunks of at most size
// elements and runs fn once per chunk on the worker pool, preserving
// order: the returned slice is the concatenation of the chunk results, so
// out[i] corresponds to items[i] exactly as with Map. It is the
// granularity-tuned form of Map for work whose per-item cost is too small
// to amortize a dispatch — or that gets cheaper in bulk, like the serving
// layer's batch estimates, where each chunk becomes one lockstep walk of
// Algorithm 1 misses. fn receives the chunk's starting index into items
// and must return exactly len(chunk) results; anything else is an error.
func MapChunks[I, O any](ctx context.Context, items []I, size int, fn func(ctx context.Context, start int, chunk []I) ([]O, error), opts ...Option) ([]O, error) {
	if size < 1 {
		size = 1
	}
	n := len(items)
	chunks := (n + size - 1) / size
	per, err := Run(ctx, Of(chunks), func(ctx context.Context, c Cell) ([]O, error) {
		lo := c.Index * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		out, err := fn(ctx, lo, items[lo:hi])
		if err != nil {
			return nil, err
		}
		if len(out) != hi-lo {
			return nil, fmt.Errorf("chunk [%d,%d) returned %d results, want %d", lo, hi, len(out), hi-lo)
		}
		return out, nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	out := make([]O, 0, n)
	for _, ch := range per {
		out = append(out, ch...)
	}
	return out, nil
}
