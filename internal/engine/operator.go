package engine

import "math/rand"

// Operator is a data processing operator. One instance is created per
// executor (via the factory registered with the topology), so instances
// need no internal locking.
type Operator interface {
	// Prepare is called once before any tuples arrive.
	Prepare(ctx Context)
	// Process handles one input tuple, emitting results through ctx.
	Process(ctx Context, t Tuple)
}

// Source produces the input stream. Next emits zero or more tuples through
// ctx and returns false when the source is exhausted. One instance is
// created per source executor.
type Source interface {
	Prepare(ctx Context)
	Next(ctx Context) bool
}

// Flusher is implemented by operators with buffered or windowed state that
// must be drained when the input stream ends.
type Flusher interface {
	Flush(ctx Context)
}

// Context is the operator's interface to the runtime. The cost hooks
// (Work, AccessState) let operators with data-dependent effort report it to
// the simulated machine; they are no-ops under the native runtime.
type Context interface {
	// Emit sends a tuple on the operator's default stream.
	Emit(values ...Value)
	// EmitTo sends a tuple on a named declared stream.
	EmitTo(stream string, values ...Value)

	// ExecutorID is this executor's index within the operator [0,Parallelism).
	ExecutorID() int
	// Parallelism is the operator's executor count.
	Parallelism() int
	// OperatorName returns the operator's topology name.
	OperatorName() string

	// Work charges additional computation: uops micro-operations of which
	// branches are conditional branches (subject to misprediction).
	Work(uops, branches int)
	// AccessState charges random accesses touching the given number of
	// bytes of the executor's private state region.
	AccessState(bytes int)
	// ScanScratch charges a sequential sweep over a per-executor private
	// scratch region (working buffers that are always node-local), sized
	// by the largest sweep requested.
	ScanScratch(bytes int)

	// Rand returns this executor's deterministic random source.
	Rand() *rand.Rand

	// Input reports the operator and stream the current tuple arrived on
	// (empty strings for sources).
	Input() (operator, stream string)
}

// ProcessFunc adapts a function to the Operator interface for stateless
// operators.
type ProcessFunc func(ctx Context, t Tuple)

// Prepare implements Operator.
func (f ProcessFunc) Prepare(Context) {}

// Process implements Operator.
func (f ProcessFunc) Process(ctx Context, t Tuple) { f(ctx, t) }
