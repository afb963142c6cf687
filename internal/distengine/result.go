package distengine

import (
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
)

// encodeResult renders a job result for the wire: its canonical JSON
// (internal/digest) and the SHA-256 of exactly those bytes, which is
// the outcome digest the golden harness and the daemon report.
func encodeResult(r *jobspec.Result) (payload []byte, dg string, err error) {
	payload, err = r.CanonicalJSON()
	if err != nil {
		return nil, "", fmt.Errorf("distengine: encode result: %w", err)
	}
	return payload, digest.Hash(payload), nil
}

// decodeResult decodes a wire payload as the outcome type of the spec
// kind the coordinator sent, then re-digests the decoded value and
// compares it with the digest the worker computed before encoding. A
// mismatch means the transport or the decoder changed the outcome — the
// whole point of the byte-identity fence — so it fails the job loudly
// instead of letting results shift silently.
func decodeResult(kind string, payload []byte, wantDigest string) (*jobspec.Result, error) {
	r := &jobspec.Result{}
	var target any
	if kind == jobspec.KindFleet {
		r.Fleet = new(campaign.FleetOutcome)
		target = r.Fleet
	} else {
		r.Outcome = new(campaign.Outcome)
		target = r.Outcome
	}
	if err := digest.Decode(payload, target); err != nil {
		return nil, fmt.Errorf("distengine: decode result: %w", err)
	}
	got, err := r.Digest()
	if err != nil {
		return nil, fmt.Errorf("distengine: digest decoded result: %w", err)
	}
	if got != wantDigest {
		return nil, fmt.Errorf("distengine: wire integrity: decoded outcome digest %s != worker digest %s", got, wantDigest)
	}
	return r, nil
}
