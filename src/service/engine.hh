/**
 * @file
 * ServiceEngine: one parsed request in, one response out.
 *
 * The engine is the library-call form of the service — the daemon's
 * connection handlers (linear-time policies) and admission worker
 * (exact searches) call it concurrently, the CLI can call it
 * in-process, and the loopback tests compare daemon responses
 * byte-for-byte against it.
 * It owns the EvalCache that makes duplicate requests cheap and
 * routes every static-schedule evaluation through a BatchEvaluator on
 * a shared thread pool.
 *
 * serve() builds a per-request BatchEvaluator (pool + shared cache +
 * that request's own EvalCounters tally), so the response's
 * cache-hits/-misses stats count exactly that request's probes even
 * when serves overlap — before/after deltas of the shared cache's
 * global counters would misattribute concurrent requests' probes to
 * each other.
 */

#ifndef JITSCHED_SERVICE_ENGINE_HH
#define JITSCHED_SERVICE_ENGINE_HH

#include <atomic>

#include "exec/batch_eval.hh"
#include "exec/eval_cache.hh"
#include "exec/thread_pool.hh"
#include "service/policy.hh"
#include "service/protocol.hh"

namespace jitsched {

class ServiceEngine
{
  public:
    /**
     * @param registry policy table; must outlive the engine
     * @param pool executor for the evaluation fan-out; nullptr uses
     *        ThreadPool::global()
     */
    explicit ServiceEngine(
        const PolicyRegistry &registry = PolicyRegistry::builtin(),
        ThreadPool *pool = nullptr)
        : registry_(registry),
          pool_(pool != nullptr ? *pool : ThreadPool::global()),
          evaluator_(pool_, &cache_)
    {
    }

    ServiceEngine(const ServiceEngine &) = delete;
    ServiceEngine &operator=(const ServiceEngine &) = delete;

    /**
     * Serve one request synchronously.  Always returns a response —
     * unknown policies, empty workloads and solver refusals come back
     * as structured errors, never as process exits.  Fills every
     * response field except stats.queueNs (the admission queue's).
     */
    ServiceResponse serve(const ServiceRequest &req);

    const PolicyRegistry &registry() const { return registry_; }
    EvalCache &cache() { return cache_; }
    BatchEvaluator &evaluator() { return evaluator_; }

    /** Requests served (ok or error) since construction. */
    std::uint64_t requestsServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }

  private:
    const PolicyRegistry &registry_;
    ThreadPool &pool_;
    EvalCache cache_;
    BatchEvaluator evaluator_;
    std::atomic<std::uint64_t> served_{0};
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_ENGINE_HH
