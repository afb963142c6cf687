package distengine

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
)

// rawFrame renders f exactly as a peer's send writes it.
func rawFrame(t testing.TB, f frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := newStreamConn(nil, &buf, nil).send(f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lengthPrefixed puts a 4-byte length n in front of body, whatever body's
// real length.
func lengthPrefixed(n uint32, body string) []byte {
	b := binary.BigEndian.AppendUint32(nil, n)
	return append(b, body...)
}

// FuzzFrameRecv feeds arbitrary bytes to the frame reader both
// transports share. It must never panic; a result frame it accepts is then decoded as a
// coordinator would, as either outcome type, which must not panic
// either. The seeds named malformed below must each be rejected without
// allocating for a length that never arrived.
func FuzzFrameRecv(f *testing.F) {
	payload, dg, err := encodeResult(&jobspec.Result{Outcome: &campaign.Outcome{KeyDead: 3}})
	if err != nil {
		f.Fatal(err)
	}
	result := rawFrame(f, frame{Type: frameResult, ID: 7, Outcome: payload, Digest: dg})
	f.Add(rawFrame(f, frame{Type: frameHello, Proto: ProtoVersion}))
	f.Add(result)
	f.Add(rawFrame(f, frame{Type: frameJob, ID: 1, Spec: []byte(`{"kind":"legit"}`)}))

	malformed := map[string][]byte{
		"truncated header": {0, 0, 1},
		"truncated body":   result[:len(result)-5],
		"huge truncated":   lengthPrefixed(maxFrame, `{"type":"hello"}`),
		"over maxFrame":    lengthPrefixed(maxFrame+1, `{"type":"hello"}`),
		"bad JSON":         lengthPrefixed(9, `{"type":`),
		"wrong JSON type":  lengthPrefixed(4, `[42]`),
		"empty":            {},
	}
	for name, in := range malformed {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := newStreamConn(bytes.NewReader(in), nil, nil).recv()
		runtime.ReadMemStats(&after)
		if err == nil {
			f.Errorf("%s: recv accepted %q", name, in)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			f.Errorf("%s: recv allocated %d bytes for a %d-byte input", name, alloc, len(in))
		}
		f.Add(in)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := newStreamConn(bytes.NewReader(data), nil, nil).recv()
		if err != nil || fr.Type != frameResult {
			return
		}
		for _, kind := range []string{jobspec.KindLegit, jobspec.KindFleet} {
			res, err, _ := decodeResultFrame(context.Background(), kind, fr)
			if err == nil && res == nil && fr.ErrKind == "" {
				t.Fatalf("%s: accepted result frame decoded to nothing", kind)
			}
		}
	})
}
