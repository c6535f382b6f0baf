package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"syscall"
	"time"
)

// ErrRetriesExhausted wraps the last transient error once Upload gives
// up after UploadOptions.MaxAttempts consecutive failures. It is the
// exit-code boundary for AP-side tooling: errors.Is(err,
// ErrRetriesExhausted) means "the network never came back", while any
// other error from Upload is fatal (a bug or a refused frame, not
// weather).
var ErrRetriesExhausted = errors.New("server: upload retries exhausted")

// IsTransientNetError reports whether err looks like network weather
// — a timeout, refused/reset/aborted connection, or unreachable host
// — rather than a protocol or programming error. Upload retries
// exactly these; everything else fails fast.
func IsTransientNetError(err error) bool {
	if err == nil {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	for _, target := range []error{
		syscall.ECONNREFUSED, syscall.ECONNRESET, syscall.ECONNABORTED,
		syscall.EPIPE, syscall.ETIMEDOUT, syscall.EHOSTUNREACH,
		syscall.ENETUNREACH, syscall.ENETRESET,
	} {
		if errors.Is(err, target) {
			return true
		}
	}
	// Test harnesses (net.Pipe, chaos injectors) surface peer death as
	// closed pipes and unexpected EOFs; a real peer reset can too.
	return errors.Is(err, io.ErrClosedPipe) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// UploadOptions configures APNode.Upload. The zero value ships frames
// of up to 16 captures on a stream and makes one attempt.
type UploadOptions struct {
	// Batch is the captures per frame (≤0 means 16, capped at
	// MaxBatchCaptures).
	Batch int
	// FrameBytes caps a frame's wire size: 0 on a stream,
	// MaxDatagramBytes over UDP, where each frame is one datagram. A
	// capture that would push a frame past the cap waits for the next
	// frame; one that alone exceeds it ships in a frame of its own.
	FrameBytes int
	// MaxAttempts is the number of consecutive failed attempts (dials
	// or writes, without a delivered frame in between) before giving
	// up with ErrRetriesExhausted. ≤1 means one attempt, whose dial or
	// write error is returned as it is.
	MaxAttempts int
	// MinBackoff is the first reconnect delay (0 means 100 ms). It
	// doubles per attempt up to 5 s and is jittered by ±20 %, so a
	// fleet of APs reconnecting after an outage does not stampede the
	// server in lockstep.
	MinBackoff time.Duration
	// OnAttempt, when non-nil, observes every failed attempt before
	// its backoff sleep — the "log one line per reconnect" hook.
	OnAttempt func(attempt int, backoff time.Duration, err error)
	// Rand supplies jitter variates (deterministic tests); nil uses
	// the global source.
	Rand *rand.Rand
}

// Reconnect backoff bounds: the doubling stops at maxBackoff, and each
// delay is scaled by a uniform factor in [1−backoffJitter,
// 1+backoffJitter].
const (
	maxBackoff    = 5 * time.Second
	backoffJitter = 0.2
)

// backoff returns the attempt'th jittered exponential delay.
func (o UploadOptions) backoff(attempt int) time.Duration {
	d := o.MinBackoff
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
	var u float64
	if o.Rand != nil {
		u = o.Rand.Float64()
	} else {
		u = rand.Float64()
	}
	return time.Duration(float64(d) * (1 + backoffJitter*(2*u-1)))
}

// sleep waits for d or the context, whichever ends first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Upload drains the buffer over connections it dials itself, one
// WriteBatch (one syscall, one datagram over UDP) per frame of up to
// Batch captures and FrameBytes bytes. When a dial or write fails
// transiently and MaxAttempts allows, it reconnects with jittered
// exponential backoff and replays the frame in flight on the new
// connection — bounded replay: at most one frame (the captures already
// popped from the CircularBuffer when the wire died) is ever held for
// redelivery, so an outage costs one frame of potential duplication,
// never unbounded buffering on top of the ring. Delivery is therefore
// at-least-once; the backend's per-AP sequence numbers absorb
// duplicates.
//
// It returns nil once the buffer is empty and everything popped has
// been written, the context error on cancellation, a wrapped
// ErrRetriesExhausted after MaxAttempts consecutive transient
// failures, and the error itself when it is not transient (see
// IsTransientNetError) or MaxAttempts ≤ 1.
func (n *APNode) Upload(ctx context.Context, dial func(context.Context) (net.Conn, error), opt UploadOptions) error {
	batch := opt.Batch
	if batch <= 0 {
		batch = 16
	}
	batch = min(batch, MaxBatchCaptures)
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	// frame is the frame in flight: popped, not yet written. held is
	// the capture that overflowed FrameBytes, the next frame's first.
	frame := make([]Capture, 0, batch)
	var held *Capture
	attempt := 0
	fail := func(err error) error {
		attempt++
		if opt.MaxAttempts <= 1 || !IsTransientNetError(err) {
			return err
		}
		if attempt >= opt.MaxAttempts {
			return fmt.Errorf("%w: %d consecutive attempts, last error: %v", ErrRetriesExhausted, attempt, err)
		}
		d := opt.backoff(attempt)
		if opt.OnAttempt != nil {
			opt.OnAttempt(attempt, d, err)
		}
		return sleep(ctx, d)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if conn == nil {
			c, err := dial(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				if err := fail(err); err != nil {
					return err
				}
				continue
			}
			conn = c
		}
		if len(frame) == 0 {
			if held != nil {
				frame = append(frame, *held)
				held = nil
			}
			for len(frame) < batch {
				c, ok := n.Buffer.Pop()
				if !ok {
					break
				}
				frame = append(frame, c)
				if opt.FrameBytes > 0 && len(frame) > 1 && BatchFrameSize(frame) > opt.FrameBytes {
					// c overflows the frame: it opens the next one.
					frame, held = frame[:len(frame)-1], &c
					break
				}
			}
			if len(frame) == 0 {
				return nil
			}
		}
		if err := WriteBatch(conn, frame); err != nil {
			conn.Close()
			conn = nil
			if err := fail(err); err != nil {
				return err
			}
			continue // the frame stays in flight: replay it on reconnect
		}
		frame = frame[:0]
		attempt = 0 // a delivered frame resets the consecutive-failure count
	}
}
