package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mafic/internal/checkpoint"
	"mafic/internal/experiment"
	"mafic/internal/serve"
)

const (
	// serveDurationMs is the simulated length of a serve-50k job: the
	// first second of stress-50k, which covers the attack onset, detection
	// and activation. Full three-second jobs would leave too few per
	// window for a tail latency.
	serveDurationMs = 1000
	// restartAtMs is how far (simulated) every job of a restart round must
	// have checkpointed before the server is shut down under it.
	restartAtMs = 400
	// pollEvery is how often clients poll their job's state.
	pollEvery = 2 * time.Millisecond
	// waitTimeout bounds every wait on the server: a drain (a job pauses at
	// its next checkpoint), a job reaching a state, a job finishing.
	waitTimeout = time.Minute
)

// waitFor polls cond until it holds or waitTimeout passes.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(waitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not done after %v", what, waitTimeout)
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// serveRun is the state of one serve-50k run.
type serveRun struct {
	b    *bench
	refs references
	cfg  serve.Config
	rng  *rand.Rand // orders each pass's scenario seeds
	rep  *report

	mu      sync.Mutex
	sv      *serve.Server
	retired []serve.Metrics // counters of the servers already shut down
	base    serve.Metrics   // counters at the end of the warm-up
	// Per completed job: time queued and time running, in seconds.
	queueWait, runTime []float64
	restarts           []float64 // serve.restart_s samples
	snapshots          [][]byte  // the newest snapshot at each restart (traced)
}

func (r *serveRun) server() *serve.Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sv
}

// serve runs an in-process maficserve over a snapshot store on local disk,
// with one worker and one closed-loop client per CPU. In each round every
// client submits a stress-50k job and polls it to completion. The window is
// whole passes, each running every recorded scenario seed once; in the last
// round of each pass the server is shut down (drained) mid-job and a fresh
// one opened over the same directory, which resumes the jobs from their
// snapshots. Every job's result, resumed or not, must match the stress-50k
// reference.
func (b *bench) serve() (*report, error) {
	refs, err := loadReferences(b.root)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(b.outDir(), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b.host.StoreFS, b.host.StoreTmpfs = filesystemOf(dir)

	r := &serveRun{
		b:    b,
		refs: refs,
		rng:  rand.New(rand.NewSource(b.seed)),
		rep:  newReport(),
		cfg: serve.Config{
			Dir:     filepath.Join(dir, "service"),
			Workers: b.workers,
			Log:     log.New(io.Discard, "", 0),
		},
	}
	if r.sv, err = serve.New(r.cfg); err != nil {
		return nil, err
	}
	r.sv.Start()
	err = r.warmUp()
	if err == nil {
		r.rep.win, err = b.measure(func() error {
			return runPasses(b.window, passesFor(referenceSeeds), time.Now, r.pass)
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	if serr := r.sv.Shutdown(ctx); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	var setup []experiment.Scenario
	for seed := int64(1); seed <= referenceSeeds; seed++ {
		s, err := spec(seed).BuildScenario()
		if err != nil {
			return nil, err
		}
		setup = append(setup, s)
	}
	if err := b.measureSetup(r.rep, setup); err != nil {
		return nil, err
	}
	if err := r.layerMetrics(filepath.Join(dir, "scratch-store")); err != nil {
		return nil, err
	}
	return r.rep, nil
}

// spec is the job a client submits for a scenario seed.
func spec(seed int64) serve.JobSpec {
	ms := float64(serveDurationMs)
	return serve.JobSpec{Scenario: "stress-50k", Seed: &seed, DurationMs: &ms}
}

// warmUp runs one round without a restart before the measured window, and
// forgets its jobs: the window then starts on a server that has already run
// and checkpointed a job per worker.
func (r *serveRun) warmUp() error {
	live := r.rep
	r.rep = newReport()
	seeds := make([]int64, r.b.workers)
	for c := range seeds {
		seeds[c] = 1 + int64(c%referenceSeeds)
	}
	err := r.round(seeds, false)
	warm := r.rep
	r.rep = live
	r.queueWait, r.runTime = nil, nil
	r.base = r.server().Metrics()
	if err == nil && warm.ops.failed > 0 {
		err = errors.New(strings.Join(warm.ops.errs, "; "))
	}
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// pass is one pass of the measured window: rounds of one job per client
// until every recorded scenario seed has run, in an order drawn from the
// workload seed (a last round short of seeds starts the order again). The
// last round of each pass is a restart round.
func (r *serveRun) pass(int) error {
	w := r.b.workers
	rounds := (referenceSeeds + w - 1) / w
	order := passSeeds(r.rng)
	for n := 0; n < rounds; n++ {
		seeds := make([]int64, w)
		for c := range seeds {
			seeds[c] = order[(n*w+c)%referenceSeeds]
		}
		if err := r.round(seeds, n == rounds-1); err != nil {
			return err
		}
	}
	return nil
}

// round submits one job per client, the c-th for seeds[c], and waits for
// all of them; a restart round also restarts the server under them.
func (r *serveRun) round(seeds []int64, restart bool) error {
	var wg sync.WaitGroup
	var ids []uint64
	for _, seed := range seeds {
		info, err := r.server().Submit(spec(seed))
		if err != nil {
			r.rep.ops.done(0, 0, fmt.Errorf("submit: %w", err))
			continue
		}
		ids = append(ids, info.ID)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.await(info.ID, seed)
		}()
	}
	var err error
	if restart && len(ids) > 0 {
		err = r.restart(ids)
	}
	wg.Wait()
	return err
}

func terminal(s serve.JobState) bool {
	return s == serve.StateCompleted || s == serve.StateFailed || s == serve.StateCanceled
}

// await polls a job until it ends and records it as one operation, timed
// from submission to completion by the server's own clock.
func (r *serveRun) await(id uint64, seed int64) {
	var info serve.JobInfo
	err := waitFor(fmt.Sprintf("job %d", id), func() bool {
		var ok bool
		info, ok = r.server().Job(id)
		return ok && terminal(info.State)
	})
	var latency time.Duration
	if err == nil {
		err = r.checkJob(info, seed)
	}
	if err == nil {
		latency = info.FinishedAt.Sub(info.SubmittedAt)
		r.mu.Lock()
		r.queueWait = append(r.queueWait, info.StartedAt.Sub(info.SubmittedAt).Seconds())
		r.runTime = append(r.runTime, info.FinishedAt.Sub(*info.StartedAt).Seconds())
		r.mu.Unlock()
	}
	r.rep.ops.done(latency, serveDurationMs/1000.0, err)
	if r.b.tr != nil && info.StartedAt != nil && info.FinishedAt != nil {
		job := r.b.tr.add(fmt.Sprintf("job:%d", id), 0, info.SubmittedAt, *info.FinishedAt)
		r.b.tr.add("queue", job, info.SubmittedAt, *info.StartedAt)
		r.b.tr.add("run", job, *info.StartedAt, *info.FinishedAt)
	}
}

// checkJob accepts a completed job whose result.json matches the reference.
func (r *serveRun) checkJob(info serve.JobInfo, seed int64) error {
	if info.State != serve.StateCompleted {
		return fmt.Errorf("job %d ended %s: %s", info.ID, info.State, info.Error)
	}
	data, err := r.server().ResultBytes(info.ID)
	if err != nil {
		return fmt.Errorf("job %d: %w", info.ID, err)
	}
	var res experiment.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("job %d result: %w", info.ID, err)
	}
	r.mu.Lock()
	r.rep.counts.add(res, 1)
	r.mu.Unlock()
	if err := r.refs.check(serveDurationMs, seed, res); err != nil {
		return fmt.Errorf("job %d: %w", info.ID, err)
	}
	return nil
}

// restart waits until every job in ids has checkpointed past restartAtMs,
// shuts the server down under them, opens a fresh one over the same
// directory and waits until each interrupted job, resumed, has written its
// next snapshot. That span is one serve.restart_s sample.
func (r *serveRun) restart(ids []uint64) error {
	old := r.server()
	if err := waitFor("jobs to reach the restart point", func() bool {
		return r.all(old, ids, func(j serve.JobInfo) bool { return j.LastCheckpointMs >= restartAtMs })
	}); err != nil {
		return err
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	if err := old.Shutdown(ctx); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	var inflight []uint64
	for _, id := range ids {
		if j, _ := old.Job(id); !terminal(j.State) {
			inflight = append(inflight, id)
		}
	}
	// A traced run keeps the newest snapshot of an interrupted job to time
	// its decode and a save after the window; reading it is not part of
	// the restart.
	var paused time.Duration
	if r.b.traced && len(inflight) > 0 {
		t := time.Now()
		data, err := newestSnapshot(r.cfg.Dir)
		if err != nil {
			return err
		}
		r.snapshots = append(r.snapshots, data)
		paused = time.Since(t)
	}

	sv, err := serve.New(r.cfg)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	sv.Start()
	r.mu.Lock()
	r.retired = append(r.retired, old.Metrics())
	r.sv = sv
	r.mu.Unlock()
	if err := waitFor("resumed jobs to checkpoint", func() bool {
		return r.all(sv, inflight, func(j serve.JobInfo) bool {
			return j.ResumedFromMs != nil && j.LastCheckpointMs > *j.ResumedFromMs
		})
	}); err != nil {
		return err
	}
	end := time.Now()
	r.restarts = append(r.restarts, (end.Sub(start) - paused).Seconds())
	r.b.tr.add("restart", 0, start, end)
	return nil
}

// all reports whether every job in ids satisfies ok, treating a job that
// has ended as satisfying it.
func (r *serveRun) all(sv *serve.Server, ids []uint64, ok func(serve.JobInfo) bool) bool {
	for _, id := range ids {
		j, found := sv.Job(id)
		if !found || (!terminal(j.State) && !ok(j)) {
			return false
		}
	}
	return true
}

// newestSnapshot returns the newest snapshot in any job directory of
// a stopped server's store. Completed jobs clear their snapshots, so only
// interrupted jobs have any.
func newestSnapshot(dir string) ([]byte, error) {
	jobs, err := filepath.Glob(filepath.Join(dir, "jobs", "*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(jobs)
	for _, j := range jobs {
		st, err := checkpoint.OpenStore(j, 1)
		if err != nil || st.Count() == 0 {
			continue
		}
		// Load reads the file without decoding it, so the profiled window
		// holds no decode the service did not do itself.
		snaps := st.Snapshots()
		return st.Load(snaps[len(snaps)-1])
	}
	return nil, errors.New("no interrupted job left a snapshot")
}

// layerMetrics fills the checkpoint and serve metrics. A traced run also
// times checkpoint.Decode of each kept snapshot and a Store.Save of it into
// a scratch store on the same disk.
func (r *serveRun) layerMetrics(scratch string) error {
	var written, resumed, corrupt uint64
	for _, m := range append(r.retired, r.sv.Metrics()) {
		written += m.SnapshotsWritten
		resumed += m.Resumed
		corrupt += m.SnapshotsCorrupt
	}
	written -= r.base.SnapshotsWritten
	resumed -= r.base.Resumed
	corrupt -= r.base.SnapshotsCorrupt
	l := r.rep.layer
	l["serve.snapshots_written"] = metric{float64(written), "count"}
	l["serve.resumed"] = metric{float64(resumed), "count"}
	l["serve.snapshots_corrupt"] = metric{float64(corrupt), "count"}
	if len(r.runTime) > 0 {
		l["checkpoint.snapshots"] = metric{float64(written) / float64(len(r.runTime)), "count"}
		l["serve.queue_wait_s"] = metric{median(r.queueWait), "s"}
		l["serve.run_s"] = metric{median(r.runTime), "s"}
	}
	if len(r.restarts) > 0 {
		l["serve.restart_s"] = metric{median(r.restarts), "s"}
	}
	if len(r.snapshots) == 0 {
		return nil
	}
	st, err := checkpoint.OpenStore(scratch, 1)
	if err != nil {
		return err
	}
	var decode, save, size []float64
	for i, data := range r.snapshots {
		t0 := time.Now()
		snap, err := checkpoint.Decode(data)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("decode kept snapshot: %w", err)
		}
		if err := st.Save(snap.Now, data); err != nil {
			return err
		}
		t2 := time.Now()
		decode = append(decode, t1.Sub(t0).Seconds())
		save = append(save, t2.Sub(t1).Seconds())
		size = append(size, float64(len(data))/1e6)
		r.b.tr.add(fmt.Sprintf("checkpoint.decode#%d", i), 0, t0, t1)
		r.b.tr.add(fmt.Sprintf("checkpoint.save#%d", i), 0, t1, t2)
	}
	l["checkpoint.decode_s"] = metric{median(decode), "s"}
	l["checkpoint.save_s"] = metric{median(save), "s"}
	l["checkpoint.snapshot_mb"] = metric{median(size), "MB"}
	return nil
}
