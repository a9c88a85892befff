// Package faults is the error taxonomy and fault-tolerance substrate of
// the collapsing pipeline. Every way the technique can refuse or fail at
// run time is a typed, inspectable error here, so callers can implement
// the degradation ladder documented in DESIGN.md:
//
//	closed-form recovery  →  exact binary-search recovery  →
//	uncollapsed parallel fallback
//
// The sentinels classify the failure; the dynamic errors wrap them with
// context (errors.Is matches the class, the message carries the detail).
// PanicError carries a recovered panic value and its stack across
// goroutine boundaries, so a worker panic in the parallel runtime
// surfaces as an ordinary error on the caller instead of killing the
// process.
//
// The package depends on nothing else in the repository: every layer
// (poly, nest, ehrhart, roots, unrank, core, omp, the CLIs) can import
// it without cycles.
package faults

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Sentinel errors classifying pipeline and runtime failures. Dynamic
// errors wrap these with %w; test with errors.Is.
var (
	// ErrNonAffine reports a loop bound that is not an integer affine
	// combination of the surrounding iterators and parameters (outside
	// the paper's Fig. 5 model).
	ErrNonAffine = errors.New("non-affine bound")

	// ErrDegreeTooHigh reports a ranking polynomial with a variable of
	// degree above 4: the recovery equation is not solvable by radicals
	// (paper §IV.B applicability limit).
	ErrDegreeTooHigh = errors.New("degree exceeds radical solvability (max 4)")

	// ErrOverflow reports an exact evaluation that exceeds the int64
	// range (iteration counts or rank values too large for the runtime).
	ErrOverflow = errors.New("int64 overflow")

	// ErrNoConvenientRoot reports that no symbolic root candidate
	// reproduces the ground-truth index on the validation samples
	// (paper §IV.A root selection failed).
	ErrNoConvenientRoot = errors.New("no convenient root")

	// ErrRecoveryDiverged reports that index recovery found no tuple of
	// rank pc inside the domain, so the binding is not regular (some loop
	// has a negative trip count): the collapsed run must stop.
	ErrRecoveryDiverged = errors.New("index recovery diverged")

	// ErrCanceled reports a parallel run stopped cooperatively at a
	// chunk boundary because its context was canceled.
	ErrCanceled = errors.New("run canceled")

	// ErrJournalCorrupt reports a checkpoint journal whose body (not
	// merely its tail) fails validation: a mid-file record with a bad
	// checksum, a missing header, or an empty file. A torn *final*
	// record is not corruption — the journal is truncated to the last
	// valid record and the run resumes.
	ErrJournalCorrupt = errors.New("checkpoint journal corrupt")

	// ErrFingerprintMismatch reports a resume attempt against a journal
	// written by a different run (different nest shape, parameters or
	// total): replaying it would mix incompatible pc-ranges, so the
	// coordinator refuses.
	ErrFingerprintMismatch = errors.New("journal fingerprint mismatch")

	// ErrShardFailed reports that a shard exhausted the recovery ladder
	// (retries with backoff, then splitting down to the minimum shard
	// size) and the run could not degrade further.
	ErrShardFailed = errors.New("shard execution failed")

	// ErrUnknownMode reports a recovery-mode spelling that names no
	// strategy (CLI flags parse user input into unrank.Mode through
	// unrank.ParseMode; this is its typed rejection).
	ErrUnknownMode = errors.New("unknown recovery mode")
)

// Collapsible reports whether err is an applicability failure of the
// collapsing technique itself — the nest is outside the model
// (ErrNonAffine), beyond radical solvability (ErrDegreeTooHigh), lacks a
// convenient root (ErrNoConvenientRoot), or overflows int64 arithmetic
// (ErrOverflow). These are the failures the graceful-degradation path
// downgrades to an uncollapsed parallel loop; panics, cancellations and
// divergence are not downgradable.
func Collapsible(err error) bool {
	return errors.Is(err, ErrNonAffine) ||
		errors.Is(err, ErrDegreeTooHigh) ||
		errors.Is(err, ErrNoConvenientRoot) ||
		errors.Is(err, ErrOverflow)
}

// PanicError is a panic recovered at a package boundary: the original
// panic value plus the stack of the panicking goroutine, captured at
// recovery. The parallel runtime returns one when a worker panics; the
// compile pipeline returns one when an internal invariant trips.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the panicking goroutine's stack (debug.Stack format).
	Stack []byte
}

// Recovered wraps a recover() result into a PanicError, capturing the
// current goroutine's stack. Call it directly inside the deferred
// function so the stack still contains the panic site.
func Recovered(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Error renders the panic value; the stack is available via the Stack
// field (and shown by %+v).
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Format renders the stack too under %+v.
func (e *PanicError) Format(f fmt.State, verb rune) {
	if verb == 'v' && f.Flag('+') {
		fmt.Fprintf(f, "panic: %v\n%s", e.Value, e.Stack)
		return
	}
	fmt.Fprint(f, e.Error())
}

// Unwrap exposes a wrapped error panic value (e.g. the overflow error
// the exact evaluator panics with), so errors.Is(err, ErrOverflow)
// works through a PanicError.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// AsPanic returns the *PanicError in err's chain, or nil.
func AsPanic(err error) *PanicError {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe
	}
	return nil
}
