package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/reprolab/wrsn-csa/internal/jobspec"
)

// TestSubmitRejectsSubStepSampling posts a spec whose sampling cadence
// is finer than the world's step. Such a job once passed validation and
// then exhausted memory recording the same state over and over, killing
// the daemon; now the handler answers 400 naming the knob, and the
// daemon stays up and runs the next job.
func TestSubmitRejectsSubStepSampling(t *testing.T) {
	s := New(Options{QueueDepth: 4, Workers: 1})
	defer shutdownOrFail(t, s, 30*time.Second)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	bad := jobspec.Default(1, 10)
	bad.Campaign.HorizonSec = 86400
	bad.Campaign.SampleEverySec = 1e-3
	if code, msg := postSpec(t, srv, bad); code != http.StatusBadRequest || !strings.Contains(msg, "sample_every_sec") {
		t.Fatalf("sub-step sampling → %d %s, want 400 naming sample_every_sec", code, msg)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("rejected spec left %d job records", n)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz after rejection: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after rejection → %d, want 200", resp.StatusCode)
	}
	good := bad
	good.Campaign.SampleEverySec = 3600
	if code, msg := postSpec(t, srv, good); code != http.StatusAccepted {
		t.Fatalf("hourly sampling → %d %s, want 202", code, msg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.WaitDone(ctx, s.Jobs()[0].ID)
	if err != nil || st.State != StateDone {
		t.Fatalf("hourly-sampling job ended %+v, %v; want done", st, err)
	}
}

// TestSubmitRejectsClustersAboveN posts a spec asking for a billion
// clusters in a 10-node world. Clustered placement draws a center per
// cluster, so such a job would have exhausted memory before building
// its world; the handler answers 400 naming the knob, and the daemon
// goes on to run a normal job.
func TestSubmitRejectsClustersAboveN(t *testing.T) {
	s := New(Options{QueueDepth: 4, Workers: 1})
	defer shutdownOrFail(t, s, 30*time.Second)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	bad := jobspec.Default(1, 10)
	bad.Campaign.HorizonSec = 86400
	bad.Scenario.Deploy.Clusters = 1e9
	if code, msg := postSpec(t, srv, bad); code != http.StatusBadRequest || !strings.Contains(msg, "clusters") {
		t.Fatalf("clusters=1e9 → %d %s, want 400 naming clusters", code, msg)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("rejected spec left %d job records", n)
	}
	good := bad
	good.Scenario.Deploy.Clusters = 0
	if code, msg := postSpec(t, srv, good); code != http.StatusAccepted {
		t.Fatalf("default clusters → %d %s, want 202", code, msg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.WaitDone(ctx, s.Jobs()[0].ID)
	if err != nil || st.State != StateDone {
		t.Fatalf("default-clusters job ended %+v, %v; want done", st, err)
	}
}

// postSpec submits spec to the test server's job endpoint and returns
// the status code and body.
func postSpec(t *testing.T, srv *httptest.Server, spec jobspec.Spec) (int, string) {
	t.Helper()
	body, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}
