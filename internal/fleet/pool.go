package fleet

import (
	"errors"
	"sync"

	"repro/internal/service"
)

// ErrPoolClosed is returned to submitters whose retune was still queued
// when the pool shut down.
var ErrPoolClosed = errors.New("fleet: worker pool closed")

// ErrTenantRemoved is returned to submitters whose tenant was
// deregistered while their retune was still queued.
var ErrTenantRemoved = errors.New("fleet: tenant removed")

// runnerFunc executes one retune for a tenant; the registry supplies it
// so the pool stays ignorant of services and catalogs.
type runnerFunc func(tenant, trigger string, budget int64, overrideBudget bool) (*service.Recommendation, error)

// job is one queued retune. done == nil marks a fire-and-forget
// drift-triggered retune; synchronous submitters wait on done (buffered,
// so a worker never blocks on a departed submitter).
type job struct {
	tenant         string
	trigger        string
	budget         int64
	overrideBudget bool
	priority       bool
	seq            int64
	done           chan jobResult
}

type jobResult struct {
	rec *service.Recommendation
	err error
}

// tenantQueue is one tenant's pending retunes. inflight enforces the
// fleet invariant — at most one retune per tenant runs at a time — so
// tenants never contend with themselves for workers, and a worker is
// never parked on a tenant's session mutex.
type tenantQueue struct {
	jobs     []*job
	inflight bool
	// autoPending dedupes fire-and-forget retunes: drift may fire many
	// times while one retune is queued, but rerunning it buys nothing —
	// the retune reads the window at start time.
	autoPending bool
	removed     bool
}

// Pool shards retune sessions across a fleet of tenants: a fixed set of
// workers drains per-tenant FIFO queues, running at most one session
// per tenant at a time. Drift-triggered retunes are prioritized over
// interactively submitted ones — keeping recommendations fresh under
// load matters more than interactive latency — and within a priority
// class tenants are served oldest-job-first, so no tenant starves.
type Pool struct {
	run  runnerFunc
	logf func(format string, args ...any)

	mu        sync.Mutex
	cond      *sync.Cond
	queues    map[string]*tenantQueue
	seq       int64
	closed    bool
	wg        sync.WaitGroup
	workers   int
	completed int64
}

// newPool starts a pool of the given size (workers >= 1).
func newPool(workers int, run runnerFunc, logf func(string, ...any)) *Pool {
	if workers < 1 {
		workers = 1
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p := &Pool{run: run, logf: logf, queues: map[string]*tenantQueue{}, workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// queueLocked returns (creating if needed) tenant's queue.
func (p *Pool) queueLocked(tenant string) *tenantQueue {
	q, ok := p.queues[tenant]
	if !ok {
		q = &tenantQueue{}
		p.queues[tenant] = q
	}
	return q
}

// EnqueueAuto queues a fire-and-forget retune (the RetuneScheduler hook
// path: drift detection and TriggerRetune). Duplicate requests while
// one is still pending are coalesced.
func (p *Pool) EnqueueAuto(tenant, trigger string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	q := p.queueLocked(tenant)
	if q.removed || q.autoPending {
		return
	}
	q.autoPending = true
	p.seq++
	q.jobs = append(q.jobs, &job{tenant: tenant, trigger: trigger, priority: true, seq: p.seq})
	p.cond.Broadcast()
}

// Submit queues a synchronous retune and returns the channel its result
// will arrive on (buffered; the worker never blocks on it). Submissions
// against a closed pool or removed tenant fail immediately.
func (p *Pool) Submit(tenant, trigger string, budget int64, overrideBudget bool) <-chan jobResult {
	ch := make(chan jobResult, 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		ch <- jobResult{err: ErrPoolClosed}
		return ch
	}
	q := p.queueLocked(tenant)
	if q.removed {
		ch <- jobResult{err: ErrTenantRemoved}
		return ch
	}
	p.seq++
	q.jobs = append(q.jobs, &job{
		tenant: tenant, trigger: trigger,
		budget: budget, overrideBudget: overrideBudget,
		seq: p.seq, done: ch,
	})
	p.cond.Broadcast()
	return ch
}

// pickLocked selects the next runnable job: among tenants that have
// work and nothing in flight, a queue whose head is a priority
// (drift-triggered) job wins; ties and the rest go oldest-first.
func (p *Pool) pickLocked() (string, *tenantQueue) {
	var (
		bestID   string
		bestQ    *tenantQueue
		bestPrio bool
		bestSeq  int64
	)
	for id, q := range p.queues {
		if q.inflight || len(q.jobs) == 0 {
			continue
		}
		head := q.jobs[0]
		better := bestQ == nil ||
			(head.priority && !bestPrio) ||
			(head.priority == bestPrio && head.seq < bestSeq)
		if better {
			bestID, bestQ, bestPrio, bestSeq = id, q, head.priority, head.seq
		}
	}
	return bestID, bestQ
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		var (
			id string
			q  *tenantQueue
		)
		for {
			if p.closed {
				p.mu.Unlock()
				return
			}
			id, q = p.pickLocked()
			if q != nil {
				break
			}
			p.cond.Wait()
		}
		j := q.jobs[0]
		q.jobs = q.jobs[1:]
		q.inflight = true
		if j.done == nil {
			// From here on, new drift signals warrant a new retune: the
			// window will have moved past what this session reads.
			q.autoPending = false
		}
		p.mu.Unlock()

		rec, err := p.run(j.tenant, j.trigger, j.budget, j.overrideBudget)
		if j.done == nil && err != nil {
			p.logf("fleet: tenant %s: %s retune failed: %v", j.tenant, j.trigger, err)
		}

		p.mu.Lock()
		q.inflight = false
		p.completed++
		if q.removed && len(q.jobs) == 0 && !q.inflight {
			delete(p.queues, id)
		}
		p.cond.Broadcast()
		p.mu.Unlock()
		// The result goes out once the job no longer counts as in flight,
		// so a submitter that reads the pool after it sees the job done.
		if j.done != nil {
			j.done <- jobResult{rec: rec, err: err}
		}
	}
}

// DropTenant fails the tenant's queued jobs, waits for its in-flight
// retune (if any) to finish, and forgets the queue. After it returns,
// no pool worker touches the tenant's service again — the registry may
// safely close it.
func (p *Pool) DropTenant(tenant string) {
	p.mu.Lock()
	q, ok := p.queues[tenant]
	if !ok {
		// Mark-removed via an empty queue so a racing Submit fails.
		q = p.queueLocked(tenant)
	}
	q.removed = true
	for _, j := range q.jobs {
		if j.done != nil {
			j.done <- jobResult{err: ErrTenantRemoved}
		}
	}
	q.jobs = nil
	q.autoPending = false
	for q.inflight && !p.closed {
		p.cond.Wait()
	}
	delete(p.queues, tenant)
	p.mu.Unlock()
}

// Depths reports each tenant's queued job count and whether a retune is
// in flight.
func (p *Pool) Depths() map[string]QueueDepth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]QueueDepth, len(p.queues))
	for id, q := range p.queues {
		out[id] = QueueDepth{Queued: len(q.jobs), InFlight: q.inflight}
	}
	return out
}

// QueueDepth is one tenant's pool state.
type QueueDepth struct {
	Queued   int  `json:"queued"`
	InFlight bool `json:"in_flight"`
}

// Completed returns the number of retunes the pool has finished.
func (p *Pool) Completed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.completed
}

// Close stops the workers after their current sessions, failing every
// still-queued synchronous job with ErrPoolClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, q := range p.queues {
		for _, j := range q.jobs {
			if j.done != nil {
				j.done <- jobResult{err: ErrPoolClosed}
			}
		}
		q.jobs = nil
		q.autoPending = false
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
