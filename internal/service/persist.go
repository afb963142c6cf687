// Durable job intake: with Options.PersistDir set, every accepted spec
// is written to disk until its job reaches a terminal state, and a
// restarted daemon re-enqueues whatever specs remain. The unit of
// persistence is the spec — not the half-finished campaign — because
// jobs are deterministic: re-running a spec from scratch reproduces the
// exact result the dead daemon would have served. With checkpointing on,
// a sibling <id>.ckpt file holds the job's latest live snapshot; the
// restarted daemon attaches it as the spec's ResumeFrom so the re-run
// picks up mid-campaign instead of replaying from the start — and still
// lands on the identical outcome digest.
package service

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/obs"
)

// specPath returns the durable spec file for a job ID.
func (s *Service) specPath(id string) string {
	return filepath.Join(s.opts.PersistDir, id+".json")
}

// ckptPath returns the durable checkpoint file for a job ID.
func (s *Service) ckptPath(id string) string {
	return filepath.Join(s.opts.PersistDir, id+".ckpt")
}

// atomicWrite writes b to path so a crash at any instant leaves either
// the old content or the new — never a torn file: write to a sibling
// tmp, fsync the file, rename over the target, then fsync the directory
// so the rename itself survives power loss.
func atomicWrite(path string, b []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(b); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// persistLocked writes j's spec durably. Persistence is best-effort: a
// write failure is counted, not fatal — the job still runs, it just
// loses restart protection. Callers hold s.mu.
func (s *Service) persistLocked(j *job) {
	if s.opts.PersistDir == "" {
		return
	}
	b, err := j.spec.Encode()
	if err == nil {
		err = atomicWrite(s.specPath(j.id), b)
	}
	if err != nil {
		s.probeAdd("service.persist_errors", 1)
	}
}

// unpersistLocked removes j's durable spec and checkpoint once the job
// is terminal. Callers hold s.mu.
func (s *Service) unpersistLocked(j *job) {
	if s.opts.PersistDir == "" {
		return
	}
	if err := os.Remove(s.specPath(j.id)); err != nil && !os.IsNotExist(err) {
		s.probeAdd("service.persist_errors", 1)
	}
	if err := os.Remove(s.ckptPath(j.id)); err != nil && !os.IsNotExist(err) {
		s.probeAdd("service.persist_errors", 1)
	}
}

// loadPersisted scans PersistDir for specs a previous daemon left behind
// and rebuilds queued job records for them, in submission (ID) order and
// keeping their IDs; s.seq advances past the highest resumed ID so new
// submissions never collide. When a job also left a checkpoint, its
// bytes are attached as the spec's ResumeFrom so the run continues
// mid-campaign. Unreadable or invalid spec files — and checkpoints that
// fail to decode or to validate against their spec — are set aside with
// a .bad suffix rather than deleted or retried forever; a quarantined
// checkpoint only costs the resume shortcut, the spec still re-runs from
// scratch to the same digest. Called from New before the worker pool
// starts, so no locking applies yet.
func (s *Service) loadPersisted() []*job {
	if s.opts.PersistDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.opts.PersistDir, 0o755); err != nil {
		s.probeAdd("service.persist_errors", 1)
		return nil
	}
	entries, err := os.ReadDir(s.opts.PersistDir)
	if err != nil {
		s.probeAdd("service.persist_errors", 1)
		return nil
	}
	type candidate struct {
		id  string
		seq int
	}
	var cands []candidate
	for _, e := range entries {
		name := e.Name()
		id, ok := strings.CutSuffix(name, ".json")
		if !ok || e.IsDir() {
			continue
		}
		numS, ok := strings.CutPrefix(id, "job-")
		if !ok {
			continue
		}
		num, err := strconv.Atoi(numS)
		if err != nil || num <= 0 {
			continue
		}
		cands = append(cands, candidate{id: id, seq: num})
	}
	sort.Slice(cands, func(i, k int) bool { return cands[i].seq < cands[k].seq })
	var resumed []*job
	for _, c := range cands {
		if c.seq > s.seq {
			s.seq = c.seq
		}
		path := s.specPath(c.id)
		b, err := os.ReadFile(path)
		var spec jobspec.Spec
		if err == nil {
			spec, err = jobspec.Decode(b)
		}
		if err == nil {
			err = spec.Validate()
		}
		if err != nil {
			_ = os.Rename(path, path+".bad")
			s.probeAdd("service.resume_errors", 1)
			continue
		}
		fromCkpt := s.attachCheckpoint(&spec, c.id)
		resumed = append(resumed, &job{
			id:        c.id,
			spec:      spec,
			rec:       obs.NewRecorder(),
			state:     StateQueued,
			submitted: time.Now(),
			done:      make(chan struct{}),
			resumed:   fromCkpt,
		})
	}
	if len(resumed) > 0 {
		s.probeAdd("service.resumed", float64(len(resumed)))
	}
	return resumed
}

// attachCheckpoint loads the job's <id>.ckpt, if any, and grafts it onto
// spec.ResumeFrom. Reports whether a checkpoint was attached. A corrupt
// or mismatched checkpoint is quarantined as <id>.ckpt.bad and the spec
// left to re-run from scratch.
func (s *Service) attachCheckpoint(spec *jobspec.Spec, id string) bool {
	path := s.ckptPath(id)
	b, err := os.ReadFile(path)
	if err != nil {
		return false // no checkpoint (the common case) or unreadable
	}
	trial := *spec
	trial.ResumeFrom = b
	if err := trial.Validate(); err != nil {
		_ = os.Rename(path, path+".bad")
		s.probeAdd("service.resume_errors", 1)
		return false
	}
	spec.ResumeFrom = b
	return true
}
