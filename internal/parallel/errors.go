package parallel

import (
	"context"
	"errors"
)

// isCancellation reports whether err is (or wraps) context cancellation.
// The parallel constructs use it to keep the *first real cause* of a
// failure: when one iteration fails and fail-fast cancellation makes every
// sibling return "context canceled", the construct must still report the
// error that triggered the cancellation, not the cancellation itself.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// betterError reports whether (err, idx) should replace (cur, curIdx) as a
// construct's reported failure: a real error always beats a cancellation
// error, and within the same class the smallest index wins, keeping the
// report deterministic regardless of goroutine interleaving.
func betterError(err error, idx int, cur error, curIdx int) bool {
	if cur == nil {
		return true
	}
	ec, cc := isCancellation(err), isCancellation(cur)
	if ec != cc {
		return cc
	}
	return idx < curIdx
}

// FirstCause accumulates a deterministic construct-level error across
// indexed completions, using the same selection rule as the parallel loops:
// a real error always displaces a cancellation error, and within the same
// class the smallest index wins.  The zero value is ready to use; it is not
// safe for concurrent Offer calls — serialize under the caller's lock.
//
// Exported so higher-level fan-outs (pipeline.RunBatch) can report "the
// first real cause" rather than whichever cancellation happened to land
// first.
type FirstCause struct {
	err error
	idx int
}

// Offer records the completion of index idx; nil errors are ignored.
func (f *FirstCause) Offer(idx int, err error) {
	if err == nil {
		return
	}
	if betterError(err, idx, f.err, f.idx) {
		f.err, f.idx = err, idx
	}
}

// Err returns the selected error, or nil if every offered completion
// succeeded.
func (f *FirstCause) Err() error { return f.err }

// Index returns the index whose error was selected (meaningful only when
// Err is non-nil).
func (f *FirstCause) Index() int { return f.idx }
