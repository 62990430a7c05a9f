package djsock

import (
	"errors"
	"time"

	"repro/internal/netevent"
	"repro/internal/netsim"
)

// ErrTimeout is the uniform SO_TIMEOUT error of the socket layer —
// java.net.SocketTimeoutException. Every djsock operation that can expire
// (Connect across an unreachable link, AcceptTimeout, ReadTimeout) reports
// deadline expiry as an error satisfying errors.Is(err, djsock.ErrTimeout),
// in record, replay and passthrough modes alike (a replayed expiry through
// ReplayedError.Is), so callers never need to match the simulator's own
// sentinel. The underlying netsim.ErrTimeout stays reachable through Unwrap
// for code written against the substrate.
var ErrTimeout = netevent.ErrTimeout

// timeoutError adapts a simulator deadline-expiry error to the uniform
// djsock.ErrTimeout identity while preserving the original message (which is
// what record-phase logs capture) and the original Is-chain.
type timeoutError struct{ err error }

func (e *timeoutError) Error() string { return e.err.Error() }

func (e *timeoutError) Unwrap() error { return e.err }

func (e *timeoutError) Is(target error) bool { return target == ErrTimeout }

// mapTimeout wraps err so deadline expiry satisfies errors.Is(err,
// djsock.ErrTimeout); other errors (and nil) pass through unchanged.
func mapTimeout(err error) error {
	if err != nil && errors.Is(err, netsim.ErrTimeout) {
		return &timeoutError{err: err}
	}
	return err
}

// RetryPolicy bounds the redial loop applied by Env.Connect when its first
// attempt fails with a transient error (ErrRefused — the listener is not up
// yet — or a timeout, e.g. a SYN lost to a partition). The retries happen
// inside the single connect network event, exactly as kernel SYN
// retransmissions hide inside one Java Socket() constructor call, so the
// record/replay discipline sees only the final outcome.
type RetryPolicy struct {
	// Attempts is the total number of connect attempts. Values <= 1 mean a
	// single attempt, i.e. no retry — the zero policy is the old behavior.
	Attempts int
	// Backoff is the delay before the second attempt. Zero means 1ms.
	Backoff time.Duration
	// Factor multiplies the delay after each failed attempt. Values <= 1
	// mean 2.
	Factor float64
	// Max caps the backed-off delay. Zero means 64x Backoff.
	Max time.Duration
}

// dial performs the OS-level connect under the environment's retry policy.
// Each retry beyond the first attempt is counted in the VM's metrics.
func (e *Env) dial(addr netsim.Addr) (*netsim.Stream, error) {
	p := e.ConnectRetry
	if p.Attempts <= 1 {
		s, err := e.net.Connect(e.host, addr)
		return s, mapTimeout(err)
	}
	backoff := p.Backoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	factor := p.Factor
	if factor <= 1 {
		factor = 2
	}
	maxBackoff := p.Max
	if maxBackoff <= 0 {
		maxBackoff = 64 * backoff
	}
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			e.vm.Metrics().IncConnectRetry()
			time.Sleep(backoff)
			backoff = time.Duration(float64(backoff) * factor)
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		var s *netsim.Stream
		s, err = e.net.Connect(e.host, addr)
		if err == nil {
			return s, nil
		}
		if !errors.Is(err, netsim.ErrRefused) && !errors.Is(err, netsim.ErrTimeout) {
			return nil, err
		}
	}
	return nil, mapTimeout(err)
}
