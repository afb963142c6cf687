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
// kind the coordinator sent and checks it against the digest the worker
// computed before encoding. A mismatch means the transport changed the
// outcome — the whole point of the byte-identity fence — so it fails the
// job loudly instead of letting results shift silently.
//
// Hashing the payload is the whole fence, with no second re-encode:
// digest.Decode accepts only input that its decoded value re-encodes to
// byte for byte. So for every accepted result the canonical bytes of the
// decoded outcome are computed once, equal the payload, and hash to the
// worker's digest.
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
	if got := digest.Hash(payload); got != wantDigest {
		return nil, fmt.Errorf("distengine: wire integrity: payload digest %s != worker digest %s", got, wantDigest)
	}
	return r, nil
}
