#include "sweep/thread_pool.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "common/parse.hh"

namespace smt::sweep
{

namespace
{

/** Worker count requestGlobalWorkers() asked for; 0 = none requested. */
unsigned g_requested_workers = 0;
bool g_global_created = false;

unsigned
defaultWorkerCount()
{
    if (const char *env = std::getenv("SMTSIM_POOL_WORKERS");
        env != nullptr)
        return static_cast<unsigned>(parseCountOrExit(
            "SMTSIM_POOL_WORKERS", env, 1, kMaxThreadCount));
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 2;
}

} // namespace

ThreadPool::ThreadPool(unsigned workers)
    : workers_(workers >= 1 ? workers : defaultWorkerCount())
{
    threads_.reserve(workers_);
    for (unsigned i = 0; i < workers_; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    ready_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

ThreadPool &
ThreadPool::global()
{
    // Intentionally leaked: the pool must outlive every static whose
    // destructor could still be measuring, and a worker-less forked
    // child (death tests, daemonized callers) must not try to join
    // threads fork didn't copy. The OS reclaims the workers at exit.
    static ThreadPool *pool = [] {
        g_global_created = true;
        return new ThreadPool(g_requested_workers);
    }();
    return *pool;
}

void
ThreadPool::requestGlobalWorkers(unsigned workers)
{
    if (workers == 0)
        return;
    if (g_global_created) {
        if (global().workerCount() != workers)
            smt_warn("thread pool already running %u workers; "
                     "request for %u ignored",
                     global().workerCount(), workers);
        return;
    }
    g_requested_workers = workers;
}

bool
ThreadPool::runOne()
{
    std::function<void()> task;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        task = std::move(queue_.front());
        queue_.pop_front();
    }
    task();
    return true;
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        smt_assert(!stopping_);
        queue_.push_back(std::move(task));
    }
    ready_.notify_one();
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ready_.wait(lock,
                        [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping, queue drained.
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

} // namespace smt::sweep
