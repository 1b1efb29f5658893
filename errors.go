package stagedb

// errors.go is the public error taxonomy. The engine's internal packages
// report failures with rich, situation-specific errors; at the API boundary
// (Rows.Err, ExecContext/QueryContext returns, the network server's wire codes) the four
// conditions a caller can meaningfully react to are surfaced as stable typed
// sentinels with errors.Is support:
//
//   - ErrTimeout:          the query's deadline expired.
//   - ErrCanceled:         the caller (or a disconnect) canceled the query.
//   - ErrAdmissionDenied:  the server shed the query before doing any work;
//     retrying after a backoff is expected to succeed.
//   - ErrDraining:         the server is shutting down gracefully; retry
//     against another instance (or after the restart).
//   - ErrSerializationFailure: a first-committer-wins write-write conflict
//     rolled the transaction back; retrying against a fresh snapshot is
//     expected to succeed.
//
// The underlying cause stays reachable through errors.Unwrap, so
// errors.Is(err, context.DeadlineExceeded) keeps working alongside
// errors.Is(err, stagedb.ErrTimeout).

import (
	"context"
	"errors"

	"stagedb/internal/mvcc"
)

// Sentinel errors of the public API. Test them with errors.Is; the message
// prefixes are stable.
var (
	// ErrTimeout reports a query whose deadline expired (a context deadline
	// or the server's per-query timeout).
	ErrTimeout = errors.New("stagedb: query timeout")
	// ErrCanceled reports a query canceled by the caller: a canceled
	// context, an early Rows.Close observed as cancellation, or a client
	// disconnect in server mode.
	ErrCanceled = errors.New("stagedb: query canceled")
	// ErrAdmissionDenied reports a query rejected by the server's admission
	// stage before any work was done — a per-tenant quota was exhausted or
	// the engine's stage queues were past the shedding threshold. The
	// request was not executed; it is safe and expected to retry after a
	// backoff.
	ErrAdmissionDenied = errors.New("stagedb: admission denied (server overloaded, retry later)")
	// ErrDraining reports a query rejected because the server is draining
	// for shutdown: in-flight queries finish, new ones are refused. The
	// request was not executed; retry elsewhere.
	ErrDraining = errors.New("stagedb: server draining")
	// ErrSerializationFailure reports a snapshot-isolation write-write
	// conflict: a concurrent transaction modified a row this one intended
	// to write and committed first, so this transaction was rolled back
	// whole (first-committer-wins). Re-running the transaction against a
	// fresh snapshot is safe and expected to succeed.
	ErrSerializationFailure = errors.New("stagedb: serialization failure (concurrent write committed first)")
)

// Retryable reports whether err is a load-management rejection (admission
// denied or draining) or a serialization failure: in the first two cases
// the statement was never executed, in the last it was rolled back whole —
// either way resubmitting it is safe even for DML.
func Retryable(err error) bool {
	return errors.Is(err, ErrAdmissionDenied) || errors.Is(err, ErrDraining) ||
		errors.Is(err, ErrSerializationFailure)
}

// taggedErr classifies a cause under one taxonomy sentinel while keeping the
// cause reachable: Is matches the tag, Unwrap exposes the cause.
type taggedErr struct {
	tag   error
	cause error
}

func (e *taggedErr) Error() string { return e.tag.Error() + ": " + e.cause.Error() }

func (e *taggedErr) Is(target error) bool { return target == e.tag }

func (e *taggedErr) Unwrap() error { return e.cause }

// Tag classifies err under a taxonomy sentinel, preserving err as the
// unwrappable cause. The network server uses it to attach ErrTimeout /
// ErrCanceled to the raw context errors it observes.
func Tag(sentinel, err error) error {
	if err == nil {
		return sentinel
	}
	return &taggedErr{tag: sentinel, cause: err}
}

// normalizeErr maps internal failure causes onto the public taxonomy at the
// API boundary: context expiry becomes ErrTimeout, context cancellation
// becomes ErrCanceled, and already-classified errors pass through untouched.
// Everything else is returned as-is (schema and syntax errors are themselves
// the stable surface).
func normalizeErr(err error) error {
	if err == nil {
		return nil
	}
	switch {
	case errors.Is(err, ErrTimeout), errors.Is(err, ErrCanceled),
		errors.Is(err, ErrAdmissionDenied), errors.Is(err, ErrDraining),
		errors.Is(err, ErrSerializationFailure):
		return err
	case errors.Is(err, context.DeadlineExceeded):
		return &taggedErr{tag: ErrTimeout, cause: err}
	case errors.Is(err, context.Canceled):
		return &taggedErr{tag: ErrCanceled, cause: err}
	case errors.Is(err, mvcc.ErrSerializationFailure):
		return &taggedErr{tag: ErrSerializationFailure, cause: err}
	}
	return err
}
