package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"lava/internal/scheduler"
	"lava/internal/sim"
)

// Job is one simulation in a batch. Run must be self-contained: it may
// share read-only state (traces, trained models) with other jobs but must
// confine mutation to values it creates itself, so batches stay
// deterministic under any worker count.
type Job struct {
	Name string // identifies the job in results, e.g. "pool-03/lava"
	Seed int64  // seed recorded into the result for trajectory tracking
	Run  func() (*sim.Result, error)
}

// JobResult is the outcome of one job, in a machine-readable shape (the
// BENCH_*.json trajectory format).
type JobResult struct {
	Name       string   `json:"name"`
	Seed       int64    `json:"seed,omitempty"`
	Policy     string   `json:"policy,omitempty"`
	Pool       string   `json:"pool,omitempty"`
	ElapsedSec float64  `json:"elapsed_sec"`
	Error      string   `json:"error,omitempty"`
	Skipped    bool     `json:"skipped,omitempty"` // batch aborted before the job ran
	Metrics    *Metrics `json:"metrics,omitempty"`

	// Serving carries throughput/latency figures when the job was a
	// request-serving run (cmd/lavaload) rather than an offline replay.
	Serving *ServingStats `json:"serving,omitempty"`

	// Cache carries the score cache's work counters when the job reports
	// them (the scale experiment's cached arms). They describe how the
	// engine got to the result, not the result: the exhaustive engine has
	// none, so Canonicalize strips them.
	Cache *scheduler.CacheStats `json:"cache,omitempty"`

	// Result is the full simulation outcome (nil for failed or skipped
	// jobs). Not serialized; JSON consumers read Metrics.
	Result *sim.Result `json:"-"`
}

// Metrics is the serializable aggregate slice of a sim.Result: an alias of
// the one definition, sim.Aggregates.
type Metrics = sim.Aggregates

// MetricsOf extracts the serializable aggregates from a result. It is the
// one projection from a sim.Result to the BENCH JSON shape; the serving
// stack uses it so a served replay and an offline one can be compared
// byte-for-byte.
func MetricsOf(r *sim.Result) *Metrics {
	m := r.Aggregates
	return &m
}

// Progress is a batch progress snapshot, delivered after each job
// completes.
type Progress struct {
	Name    string        // job that just finished
	Done    int           // jobs finished so far (including failures)
	Total   int           // jobs in the batch
	Failed  int           // jobs that returned an error so far
	Elapsed time.Duration // wall clock since the batch started
	ETA     time.Duration // estimated remaining wall clock
}

// Batch executes simulation jobs across a worker pool.
type Batch struct {
	// Parallel is the worker count: 1 replays jobs strictly sequentially,
	// <= 0 uses GOMAXPROCS. The worker pool is bounded — a batch of ten
	// thousand jobs still runs at most Parallel simulations at once.
	Parallel int

	// OnProgress, if non-nil, receives a snapshot after every job
	// completion. Calls are serialized; the callback must not block for
	// long or it throttles the pool.
	OnProgress func(Progress)
}

// Workers resolves a Parallel setting to an effective worker count:
// values > 0 are taken as-is, anything else means GOMAXPROCS. Every
// consumer of a parallelism knob (Batch, Do, the experiments CLI) resolves
// through this one function.
func Workers(parallel int) int {
	if parallel > 0 {
		return parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns the batch's effective worker count.
func (b *Batch) Workers() int { return Workers(b.Parallel) }

// Run executes the jobs and returns their results in job order — the
// position in the returned slice matches the position in jobs, regardless
// of completion order, so downstream assembly is deterministic.
//
// The first job error (in job order, for determinism) cancels the rest of
// the batch and is returned alongside the completed results; jobs that
// never started are marked Skipped. Cancelling ctx stops the batch at the
// next job boundary with ctx's error.
func (b *Batch) Run(ctx context.Context, jobs []Job) ([]JobResult, error) {
	results := make([]JobResult, len(jobs))
	for i, j := range jobs {
		results[i] = JobResult{Name: j.Name, Seed: j.Seed, Skipped: true}
	}

	var (
		start  = time.Now()
		mu     sync.Mutex // guards done/failed and serializes OnProgress
		done   int
		failed int
	)
	tasks := make([]func() error, len(jobs))
	for i := range jobs {
		i := i
		tasks[i] = func() error {
			job := jobs[i]
			js := time.Now()
			res, err := job.Run()
			jr := &results[i]
			jr.Skipped = false
			jr.ElapsedSec = time.Since(js).Seconds()
			switch {
			case err != nil:
				jr.Error = err.Error()
			case res == nil:
				jr.Error = "job returned no result"
			default:
				jr.Result = res
				jr.Metrics = MetricsOf(res)
				jr.Policy = res.Policy
				jr.Pool = res.PoolName
			}
			mu.Lock()
			done++
			if jr.Error != "" {
				failed++
			}
			if b.OnProgress != nil {
				elapsed := time.Since(start)
				var eta time.Duration
				if done < len(jobs) {
					eta = time.Duration(float64(elapsed) / float64(done) * float64(len(jobs)-done))
				}
				b.OnProgress(Progress{
					Name: job.Name, Done: done, Total: len(jobs),
					Failed: failed, Elapsed: elapsed, ETA: eta,
				})
			}
			mu.Unlock()
			if jr.Error != "" {
				// Returning the error makes Do cancel the remaining jobs
				// and report this failure (first in job order) to Run's
				// caller.
				return errors.New(job.Name + ": " + jr.Error)
			}
			return nil
		}
	}
	return results, Do(ctx, b.Parallel, tasks...)
}

// Do runs plain tasks (trace generation, model training, post-processing
// shards) across a bounded worker pool and returns the first error in task
// order (or ctx's error on cancellation). It is the generic core Batch.Run
// is built on; tasks communicate through slots they own.
func Do(ctx context.Context, parallel int, tasks ...func() error) error {
	if len(tasks) == 0 {
		return nil
	}
	workers := Workers(parallel)
	if workers > len(tasks) {
		workers = len(tasks)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next = make(chan int)
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make([]error, len(tasks))
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := tasks[i](); err != nil {
					mu.Lock()
					errs[i] = err
					mu.Unlock()
					cancel()
				}
			}
		}()
	}
feed:
	for i := range tasks {
		if ctx.Err() != nil {
			break
		}
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
