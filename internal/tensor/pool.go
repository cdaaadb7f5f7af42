package tensor

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvKernelWorkers is the environment variable that overrides the default
// size of the shared kernel worker pool. It is read once, when the pool is
// first used; SetWorkers takes precedence at any time.
const EnvKernelWorkers = "CALIBRE_KERNEL_WORKERS"

// The package keeps one long-lived worker pool shared by every kernel
// invocation in the process. Sharing one pool is what keeps kernel
// parallelism composable with caller-level concurrency (internal/fl runs
// many clients at once): kernel tiles run on at most Workers() pool
// goroutines plus the callers themselves (each caller executes one chunk
// of its own product inline), so N concurrent callers produce about
// N + Workers() kernel goroutines — not N × Workers() as per-call pools
// would.
var (
	poolMu sync.RWMutex
	pool   *workerPool
	// workerCount mirrors pool.n (0 until the pool first exists) so the
	// serial fast path in every kernel can read the size with one atomic
	// load instead of bouncing poolMu's cache line on each tiny product.
	workerCount atomic.Int32
)

type workerPool struct {
	n     int
	tasks chan task
}

// task is one chunk of a forked call: rows [lo, hi) of job j.
type task struct {
	j      *job
	lo, hi int
}

func newWorkerPool(n int) *workerPool {
	// A call submits at most n−1 tasks: the buffer lets a few callers at
	// once hand over all their chunks without waiting for a worker.
	p := &workerPool{n: n, tasks: make(chan task, 4*n)}
	for i := 0; i < n; i++ {
		go func() {
			for t := range p.tasks {
				t.j.run(t.lo, t.hi)
				t.j.wg.Done()
			}
		}()
	}
	return p
}

func defaultWorkers() int {
	if s := os.Getenv(EnvKernelWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers resizes the shared kernel pool to n workers. n < 1 resets to
// the default (CALIBRE_KERNEL_WORKERS if set, else GOMAXPROCS). It blocks
// until in-flight kernels finish, so it is safe to call concurrently with
// kernel use; prefer calling it once at startup or between training stages.
func SetWorkers(n int) {
	if n < 1 {
		n = defaultWorkers()
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if pool != nil {
		if pool.n == n {
			return
		}
		close(pool.tasks) // idle workers exit; in-flight tasks finished under the write lock
	}
	pool = newWorkerPool(n)
	workerCount.Store(int32(n))
}

// Workers returns the current size of the shared kernel pool (the size it
// will have on first use, if no kernel has run yet). This is a single
// atomic load on the hot path.
func Workers() int {
	if n := workerCount.Load(); n > 0 {
		return int(n)
	}
	return defaultWorkers()
}

func ensurePool() {
	if workerCount.Load() > 0 {
		return
	}
	poolMu.Lock()
	if pool == nil {
		pool = newWorkerPool(defaultWorkers())
		workerCount.Store(int32(pool.n))
	}
	poolMu.Unlock()
}

// ParallelRanges splits [0, n) into at most Workers() contiguous chunks of
// at least minChunk elements and runs fn on every chunk — the exported form
// of the decomposition the kernels use, for shard-parallel reductions
// outside this package (internal/param dispatches the fl aggregators'
// element-range sweeps through it). fn must touch only its own [lo, hi)
// range; chunk boundaries are deterministic, and the first chunk runs on
// the calling goroutine.
func ParallelRanges(n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	parallelRows(n, minChunk, fn)
}

// parallelRows splits [0, m) into at most Workers() contiguous chunks of at
// least minChunk rows each and runs fn on every chunk, executing the first
// chunk on the calling goroutine and the rest on the shared pool. fn must
// touch only its own row range, which makes the decomposition deterministic:
// every output element is produced by exactly one invocation, in the same
// order as a serial sweep.
func parallelRows(m, minChunk int, fn func(lo, hi int)) {
	j := jobs.borrow()
	j.fn = fn
	j.split(m, minChunk)
	jobs.giveBack(j)
}

// parallelKernel is parallelRows over a range kernel and its operands: the
// pool runs kernel(out, a, b, lo, hi) on each chunk of [0, m), minRowsPerTask
// rows or more, from a job it reuses, so a forked product allocates nothing.
func parallelKernel(kernel func(out, a, b *Tensor, lo, hi int), out, a, b *Tensor, m int) {
	j := jobs.borrow()
	j.kernel, j.out, j.a, j.b = kernel, out, a, b
	j.split(m, minRowsPerTask)
	jobs.giveBack(j)
}

// job is one forked call, handed to the pool's workers with the bounds of
// each chunk: a range kernel and its operands, or a range function. Jobs
// are reused (jobs), so handing a kernel call to the pool builds no closure
// and no WaitGroup.
type job struct {
	kernel    func(out, a, b *Tensor, lo, hi int)
	out, a, b *Tensor
	fn        func(lo, hi int)
	wg        sync.WaitGroup
}

func (j *job) run(lo, hi int) {
	if j.fn != nil {
		j.fn(lo, hi)
		return
	}
	j.kernel(j.out, j.a, j.b, lo, hi)
}

// split runs the job on [0, m) in at most Workers() contiguous chunks of at
// least minChunk rows, the first on the calling goroutine and the rest on
// the shared pool, and returns when every chunk is done.
func (j *job) split(m, minChunk int) {
	ensurePool()
	poolMu.RLock()
	defer poolMu.RUnlock()
	chunks := pool.n
	if maxChunks := m / minChunk; chunks > maxChunks {
		chunks = maxChunks
	}
	if chunks <= 1 {
		j.run(0, m)
		return
	}
	j.wg.Add(chunks - 1)
	base, rem := m/chunks, m%chunks
	// Chunk c covers base rows, the first rem chunks one extra.
	hi := 0
	for c := 0; c < chunks; c++ {
		lo := hi
		hi = lo + base
		if c < rem {
			hi++
		}
		if c == 0 {
			continue // saved for the caller, run after all submissions
		}
		pool.tasks <- task{j, lo, hi}
	}
	first := base
	if rem > 0 {
		first++
	}
	j.run(0, first)
	j.wg.Wait()
}

// jobs keeps the jobs callers have finished with, for the next forked call:
// one per call in flight at once.
var jobs jobPool

type jobPool struct {
	mu   sync.Mutex
	free []*job
}

func (p *jobPool) borrow() *job {
	p.mu.Lock()
	defer p.mu.Unlock()
	last := len(p.free) - 1
	if last < 0 {
		return new(job)
	}
	j := p.free[last]
	p.free[last] = nil
	p.free = p.free[:last]
	return j
}

// giveBack drops the job's operands, so the pool keeps no tensor alive, and
// keeps the job.
func (p *jobPool) giveBack(j *job) {
	j.kernel, j.out, j.a, j.b, j.fn = nil, nil, nil, nil, nil
	p.mu.Lock()
	p.free = append(p.free, j)
	p.mu.Unlock()
}
