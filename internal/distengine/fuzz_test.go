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

// headed lays out a header and a payload with lengths that match them,
// whatever the header says.
func headed(hdr, payload string) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(4+len(hdr)+len(payload)))
	b = binary.BigEndian.AppendUint32(b, uint32(len(hdr)))
	return append(append(b, hdr...), payload...)
}

// FuzzFrameRecv feeds arbitrary bytes to the frame reader both
// transports share. It must never panic; a frame it accepts must carry
// its payload sections through another send and recv byte for byte,
// and a result frame it accepts is then decoded as a coordinator would,
// as either outcome type, which must not panic either. The seeds named
// malformed below must each be rejected without allocating for a length
// that never arrived.
func FuzzFrameRecv(f *testing.F) {
	payload, dg, err := encodeResult(&jobspec.Result{Outcome: &campaign.Outcome{KeyDead: 3}})
	if err != nil {
		f.Fatal(err)
	}
	result := rawFrame(f, frame{Type: frameResult, ID: 7, Outcome: payload, Digest: dg})
	f.Add(rawFrame(f, frame{Type: frameHello, Proto: ProtoVersion}))
	f.Add(result)
	f.Add(rawFrame(f, frame{Type: frameJob, ID: 1, Spec: []byte(`{"kind":"legit"}`)}))
	f.Add(rawFrame(f, frame{Type: frameJob, ID: 2, Spec: []byte(`{"kind":"legit"}`), Snapshot: []byte(`{"Version":4}`)}))
	f.Add(rawFrame(f, frame{Type: frameCancel, ID: 1}))

	malformed := map[string][]byte{
		"truncated header": {0, 0, 1},
		"truncated body":   result[:len(result)-5],
		"huge truncated":   lengthPrefixed(maxFrame, `{"type":"hello"}`),
		"over maxFrame":    lengthPrefixed(maxFrame+1, `{"type":"hello"}`),
		"bad JSON":         lengthPrefixed(9, `{"type":`),
		"wrong JSON type":  lengthPrefixed(4, `[42]`),
		"empty":            {},
		// Seeds for protocol 3's header-length field and payload rules.
		"no header length":        lengthPrefixed(2, "\x00\x00"),
		"header past frame end":   append(lengthPrefixed(10, "\x00\x00\x00\x07"), `{"type"`...),
		"huge header length":      append(lengthPrefixed(maxFrame, "\xff\xff\xff\xff"), `{"type":"hello"}`...),
		"huge truncated body":     append(lengthPrefixed(maxFrame, "\x00\x00\x00\x10"), `{"type":"hello"}`...),
		"zero header length":      headed("", `{"type":"hello","proto":3}`),
		"bad JSON header":         headed(`{"type":`, ""),
		"v2 hello":                lengthPrefixed(26, `{"type":"hello","proto":2}`),
		"payload on hello":        headed(`{"type":"hello","proto":3}`, "x"),
		"payload on cancel":       headed(`{"type":"cancel","id":1}`, `{"kind":"legit"}`),
		"payload on shutdown":     headed(`{"type":"shutdown"}`, "\x00"),
		"payload on unknown type": headed(`{"type":"gossip"}`, "x"),
		// Seeds for protocol 4's snapshot section.
		"negative snapshot_len":     headed(`{"type":"job","id":1,"snapshot_len":-1}`, `{"kind":"legit"}`),
		"snapshot_len past payload": headed(`{"type":"job","id":1,"snapshot_len":17}`, `{"kind":"legit"}`),
		"snapshot_len, no payload":  headed(`{"type":"job","id":1,"snapshot_len":1}`, ""),
		"huge snapshot_len":         headed(`{"type":"job","id":1,"snapshot_len":4294967296}`, `{"kind":"legit"}`),
		"snapshot on result":        headed(`{"type":"result","id":1,"snapshot_len":1}`, "xy"),
		"snapshot on cancel":        headed(`{"type":"cancel","id":1,"snapshot_len":1}`, "x"),
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
		if err != nil {
			return
		}
		again, err := newStreamConn(bytes.NewReader(rawFrame(t, fr)), nil, nil).recv()
		if err != nil {
			t.Fatalf("re-sent %q frame not accepted: %v", fr.Type, err)
		}
		if !bytes.Equal(again.Spec, fr.Spec) || !bytes.Equal(again.Snapshot, fr.Snapshot) || !bytes.Equal(again.Outcome, fr.Outcome) {
			t.Fatalf("re-sent %q frame changed its payload", fr.Type)
		}
		if fr.Type != frameResult {
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
