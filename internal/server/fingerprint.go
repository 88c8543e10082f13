package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"pipesched"
)

// fingerprint content-addresses one unit of compilation work: the block
// (source or tuple text), the machine, and every option that can change
// the emitted schedule. It keys both the result cache / singleflight
// dedup and the circuit breaker, so "the same block on the same
// machine" collapses to one search and accumulates one failure history.
//
// machineKey is the machine's canonical table rendering
// (Machine.String), so two structurally identical machines hash alike
// however they were specified. resolveMachine supplies it: rendered once
// per process for a preset, per request for a text spec. The hashed
// bytes are a stable format: the disk tier's keys and the fleet's ring
// positions are these fingerprints, and TestFingerprintGolden pins them.
func fingerprint(source, tuples, machineKey string, o pipesched.Options) string {
	h := sha256.New()
	io.WriteString(h, "src\x00")
	io.WriteString(h, source)
	io.WriteString(h, "\x00tuples\x00")
	io.WriteString(h, tuples)
	io.WriteString(h, "\x00machine\x00")
	io.WriteString(h, machineKey)
	fmt.Fprintf(h, "\x00opts\x00%d|%t|%t|%d|%d|%t|%t|%t|%s",
		o.Lambda, o.Optimize, o.Reassociate, o.Registers, o.Mode,
		o.ExplainNOPs, o.AssignPipelines, o.StrongEquivalence,
		o.Sched.String())
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint resolves a wire request's machine and options and returns
// its content fingerprint — the same key a Server uses for its cache,
// singleflight and circuit breaker. The fleet router consistent-hashes
// it onto the node ring, so identical work from different front doors
// lands on (and dedups at) the same backend. Invalid requests return
// the same typed errors Submit would.
func Fingerprint(req *Request) (string, error) {
	if req == nil {
		return "", fmt.Errorf("%w: nil request", ErrInvalidRequest)
	}
	if (req.Source == "") == (req.Tuples == "") {
		return "", fmt.Errorf("%w: exactly one of source or tuples must be set", ErrInvalidRequest)
	}
	_, mkey, err := resolveMachine(req.Machine)
	if err != nil {
		return "", err
	}
	o, err := resolveOptions(req.Options)
	if err != nil {
		return "", err
	}
	return fingerprint(req.Source, req.Tuples, mkey, o), nil
}
