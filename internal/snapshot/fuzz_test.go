package snapshot_test

import (
	"bytes"
	"math"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
)

// FuzzDecode feeds arbitrary bytes to the snapshot decoder. It must never
// panic, and whatever it accepts must re-encode to the identical bytes:
// the decoder reads only the canonical layout. Every accepted snapshot is
// then forked, which rebuilds its network and charger from the decoded
// state; the fork must return an error or a world, never panic. The
// seeds are a barrier snapshot and live checkpoints of a legit and an
// attack campaign; testdata adds barrier snapshots with a NaN node
// position and a NaN charger SpentJ, which the codec decodes and the
// fork must refuse.
func FuzzDecode(f *testing.F) {
	for _, s := range []*snapshot.Snapshot{
		buildSnap(f, 7, 40),
		buildLiveSnap(f, campaign.RunLegit),
		buildLiveSnap(f, campaign.RunAttack),
	} {
		b, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := snapshot.Decode(data)
		if err != nil {
			return
		}
		again, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			i := 0
			for i < min(len(data), len(again)) && data[i] == again[i] {
				i++
			}
			lo := max(i-40, 0)
			t.Fatalf("accepted snapshot re-encodes differently from offset %d:\n in: %q\nout: %q",
				i, data[lo:min(i+40, len(data))], again[lo:min(i+40, len(again))])
		}
		nw, ch, _, err := s.Fork()
		if err == nil && nw == nil {
			t.Fatal("Fork returned neither a network nor an error")
		}
		// An Outcome reports the charger's spent energy and position, so
		// a forked charger must hold finite ones (x-x is NaN unless x is
		// finite).
		if ch != nil {
			spent, pos := ch.Spent(), ch.Pos()
			if !(spent >= 0) || math.IsInf(spent, 1) || math.IsNaN(pos.X-pos.X) || math.IsNaN(pos.Y-pos.Y) {
				t.Fatalf("Fork built a charger that has spent %v at %v", spent, pos)
			}
		}
	})
}
