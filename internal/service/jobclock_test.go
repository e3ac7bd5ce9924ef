package service

import (
	"errors"
	"testing"
	"time"
)

// viewStamp renders a timings stamp the way the job view's clock
// fields are rendered on the wire ("" for an unset stamp).
func viewStamp(at time.Time) string {
	if at.IsZero() {
		return ""
	}
	return at.UTC().Format("2006-01-02T15:04:05.000Z")
}

// clockRequest is a small MIS request; seed varies it per case.
func clockRequest(seed uint64) *JobRequest {
	return &JobRequest{
		Problem:  "mis",
		Scenario: &ScenarioRequest{Name: "gnp", N: 200, Seed: seed},
		Options:  OptionsRequest{Seed: seed},
	}
}

// submitJob submits req to s in-process and fails the test on
// rejection.
func submitJob(t *testing.T, s *Server, req *JobRequest) *Job {
	t.Helper()
	j, _, err := s.submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// runQueued runs the one queued leader of an idle server. It first
// waits past the view's millisecond resolution, so a solving stamp
// never renders like the received stamp before it.
func runQueued(t *testing.T, s *Server) {
	t.Helper()
	time.Sleep(2 * time.Millisecond)
	select {
	case j := <-s.queue:
		j.run(s)
	default:
		t.Fatal("no job queued")
	}
}

// placeHit records a job for req on s and places it only after the
// view's millisecond resolution has passed, so a cache hit's settled
// stamp never renders like its received stamp.
func placeHit(t *testing.T, s *Server, req *JobRequest) *Job {
	t.Helper()
	a, err := s.admit(req)
	if err != nil {
		t.Fatal(err)
	}
	j := newJob("hit", s.tel)
	j.setResolved(a)
	time.Sleep(2 * time.Millisecond)
	if _, p := s.place(j); p != placedMemory && p != placedDisk {
		t.Fatalf("placement %d, want a cache hit", p)
	}
	return j
}

// TestJobViewClocks pins the job view's createdAt, startedAt and
// finishedAt strings to the job's timings stamps on every lifecycle
// path: createdAt is received, finishedAt is settled, and startedAt is
// solving when the job's flight ran, settled on a cache hit, received
// for a job that failed before running, and absent for a job canceled
// before it ran.
func TestJobViewClocks(t *testing.T) {
	received := func(tm *jobTimings) time.Time { return tm.received }
	solving := func(tm *jobTimings) time.Time { return tm.solving }
	settled := func(tm *jobTimings) time.Time { return tm.settled }
	never := func(*jobTimings) time.Time { return time.Time{} }

	cases := []struct {
		name    string
		job     func(t *testing.T) *Job
		state   JobState
		started func(*jobTimings) time.Time

		hit, coalesced bool
	}{
		{"cold-leader", func(t *testing.T) *Job {
			s := idleServer(t, Config{})
			j := submitJob(t, s, clockRequest(1))
			runQueued(t, s)
			return j
		}, StateDone, solving, false, false},
		{"memory-hit", func(t *testing.T) *Job {
			s := idleServer(t, Config{})
			submitJob(t, s, clockRequest(2))
			runQueued(t, s)
			return placeHit(t, s, clockRequest(2))
		}, StateDone, settled, true, false},
		{"disk-hit", func(t *testing.T) *Job {
			dir := t.TempDir()
			cold := idleServer(t, Config{CacheDir: dir})
			submitJob(t, cold, clockRequest(3))
			runQueued(t, cold)
			return placeHit(t, idleServer(t, Config{CacheDir: dir}), clockRequest(3))
		}, StateDone, settled, true, false},
		{"coalesced-follower", func(t *testing.T) *Job {
			s := idleServer(t, Config{})
			submitJob(t, s, clockRequest(4))
			j := submitJob(t, s, clockRequest(4))
			runQueued(t, s)
			return j
		}, StateDone, solving, false, true},
		{"strict-failure", func(t *testing.T) *Job {
			s := idleServer(t, Config{})
			req := &JobRequest{
				Problem:  "mis",
				Scenario: &ScenarioRequest{Name: "gnp", N: 500, Seed: 15, Params: map[string]float64{"p": 0.2}},
				Options:  OptionsRequest{Seed: 16, Strict: true, MemoryFactor: 0.02},
			}
			j := submitJob(t, s, req)
			runQueued(t, s)
			return j
		}, StateFailed, solving, false, false},
		{"failed-before-running", func(t *testing.T) *Job {
			// A batch member whose admission fails settles this way.
			j := newJob("unrun", idleServer(t, Config{}).tel)
			time.Sleep(2 * time.Millisecond)
			j.fail(errors.New("resolve failed"))
			return j
		}, StateFailed, received, false, false},
		{"canceled-queued", func(t *testing.T) *Job {
			s := idleServer(t, Config{})
			j := submitJob(t, s, clockRequest(5))
			time.Sleep(2 * time.Millisecond)
			if !j.cancelJob("test cancel") {
				t.Fatal("queued job did not cancel")
			}
			return j
		}, StateCanceled, never, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j := c.job(t)
			v := j.view()
			j.mu.Lock()
			tm := j.timings
			j.mu.Unlock()
			if v.State != c.state {
				t.Fatalf("state %s (%s), want %s", v.State, v.Error, c.state)
			}
			if want := viewStamp(tm.received); v.CreatedAt != want {
				t.Errorf("createdAt %q, want received %q", v.CreatedAt, want)
			}
			if want := viewStamp(c.started(&tm)); v.StartedAt != want {
				t.Errorf("startedAt %q, want %q", v.StartedAt, want)
			}
			if want := viewStamp(tm.settled); want == "" || v.FinishedAt != want {
				t.Errorf("finishedAt %q, want settled %q", v.FinishedAt, want)
			}
			if c.state != StateCanceled && v.StartedAt == "" {
				t.Error("startedAt missing on a job that ran or hit the cache")
			}
			if v.CacheHit != c.hit || v.Coalesced != c.coalesced {
				t.Errorf("cacheHit %v coalesced %v, want %v %v", v.CacheHit, v.Coalesced, c.hit, c.coalesced)
			}
		})
	}
}
