package djsock

import (
	"errors"

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

// dial performs the OS-level connect, one attempt, with deadline expiry
// mapped to ErrTimeout.
func (e *Env) dial(addr netsim.Addr) (*netsim.Stream, error) {
	s, err := e.net.Connect(e.host, addr)
	return s, mapTimeout(err)
}
