package experiments

import (
	"sync"

	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// maxForgeWorlds bounds the snapshot cache. A full evaluation touches a
// few dozen distinct (seed, size, policy) worlds; past the cap new
// scenarios build uncached — correctness is unaffected (fork ≡ rebuild,
// pinned by the golden harness), only the warm-up dedup is lost.
const maxForgeWorlds = 128

// worldForge caches one barrier snapshot per scenario so sweep drivers
// pay the warm-up prefix — placement, connectivity repair, routing
// convergence — once per distinct world instead of once per campaign
// cell. rfig4 alone runs 4 solvers × 5 seeds × 5 sizes over 25 distinct
// worlds; without the forge it builds 100.
//
// Forks are independent copies, so concurrent sweep jobs never share
// mutable state; the entry's once makes concurrent first-users of a
// scenario build its snapshot exactly once.
type worldForge struct {
	mu sync.Mutex
	m  map[trace.Scenario]*forgeEntry
}

type forgeEntry struct {
	once sync.Once
	snap *snapshot.Snapshot
	err  error

	// encOnce/enc cache the snapshot's encoded wire form for dispatched
	// sweeps: the coordinator pays the encode once per distinct world and
	// every shipped job spec reuses the bytes.
	encOnce sync.Once
	enc     []byte
	encErr  error
}

// forge is the package-wide world cache. Experiments are CLI-scoped, so
// process lifetime bounds it alongside maxForgeWorlds.
var forge = &worldForge{m: make(map[trace.Scenario]*forgeEntry)}

// entry returns the scenario's cache entry with its barrier snapshot
// built, building it on first use (at most once per cached scenario).
func (f *worldForge) entry(sc trace.Scenario) (*forgeEntry, error) {
	f.mu.Lock()
	e := f.m[sc]
	if e == nil {
		e = &forgeEntry{}
		if len(f.m) < maxForgeWorlds {
			f.m[sc] = e
		}
	}
	f.mu.Unlock()
	e.once.Do(func() {
		e.snap, e.err = snapshot.Build(sc, mc.DefaultParams())
	})
	return e, e.err
}

// fork returns an independent network and default charger for the
// scenario, building and caching the barrier snapshot on first use.
func (f *worldForge) fork(sc trace.Scenario) (*wrsn.Network, *mc.Charger, error) {
	e, err := f.entry(sc)
	if err != nil {
		return nil, nil, err
	}
	return e.snap.ForkWorld()
}

// encoded returns the scenario's barrier snapshot in encoded wire form,
// encoding it at most once per cached scenario. Dispatched job specs
// carry these bytes so worker processes fork the captured world instead
// of rebuilding it — the same dedup the in-process path gets from fork.
func (f *worldForge) encoded(sc trace.Scenario) ([]byte, error) {
	e, err := f.entry(sc)
	if err != nil {
		return nil, err
	}
	e.encOnce.Do(func() {
		e.enc, e.encErr = e.snap.Encode()
	})
	return e.enc, e.encErr
}

// forkDefaultWorld forks the evaluation-baseline scenario for (seed, n).
func forkDefaultWorld(seed uint64, n int) (*wrsn.Network, *mc.Charger, error) {
	return forge.fork(trace.DefaultScenario(seed, n))
}
