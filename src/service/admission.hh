/**
 * @file
 * Admission control for the scheduling service.
 *
 * Many clients, one ServiceEngine (and therefore one shared
 * BatchEvaluator/EvalCache — duplicate requests across clients hit
 * the memo table instead of re-solving), split into two lanes by the
 * requested policy's cost class:
 *
 *   - linear-time policies (iar, base-only, opt-only, lower-bound,
 *     jikes, v8) are served inline on the submitting thread — the
 *     daemon's connection handler — so they never wait behind
 *     anything;
 *   - exact searches (SchedulerPolicy::exactSearch(): astar,
 *     astar-par) go through a bounded queue drained one request at a
 *     time by a single worker, which keeps one search's node store in
 *     memory at a time.
 *
 * That split is the paper's Sec. 7 insight one level up (see
 * DESIGN.md Sec. 5a): a cheap first compile must never wait behind a
 * long optimizing compile.
 *
 * Overload policy is explicit and the same in both lanes, in the
 * spirit of the parallel-job scheduling literature the ROADMAP points
 * at (Berg et al.; Kulkarni & Li): a request that would wait behind
 * maxDepth others is answered RESOURCE_EXHAUSTED immediately instead
 * of stalling every client, and a request whose deadline has passed
 * when its turn comes is answered DEADLINE_EXCEEDED without burning
 * solver time on an answer nobody is waiting for.
 */

#ifndef JITSCHED_SERVICE_ADMISSION_HH
#define JITSCHED_SERVICE_ADMISSION_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "service/engine.hh"
#include "service/protocol.hh"

namespace jitsched {

/** Knobs of the admission queue. */
struct AdmissionConfig
{
    /**
     * A request that would wait behind this many unserved requests
     * is shed.  Only exact searches ever wait, so in practice this
     * bounds the exact queue; 0 sheds every request of both lanes.
     */
    std::size_t maxDepth = 64;
};

/**
 * Inline lane for linear-time policies + bounded queue and single
 * worker thread for exact searches, over one ServiceEngine.
 */
class AdmissionQueue
{
  public:
    /** @param engine must outlive the queue */
    explicit AdmissionQueue(ServiceEngine &engine,
                            AdmissionConfig cfg = {});

    /** Stops the worker; pending requests are answered UNAVAILABLE. */
    ~AdmissionQueue();

    AdmissionQueue(const AdmissionQueue &) = delete;
    AdmissionQueue &operator=(const AdmissionQueue &) = delete;

    /**
     * Submit a request.  A linear-time policy is served before this
     * returns, on the calling thread; an exact search is queued for
     * the worker.  The future always becomes ready: with the
     * policy's response, or with a structured RESOURCE_EXHAUSTED /
     * DEADLINE_EXCEEDED / UNAVAILABLE error carrying the request's
     * trace id.
     */
    std::future<ServiceResponse> submit(ServiceRequest req);

    /** Stop accepting and drain; idempotent. */
    void stop();

    /**
     * Restart the worker after a stop(); idempotent while running.
     * Counters are preserved across the bounce — what the restart
     * lifecycle tests assert on.
     */
    void restart();

    /** Requests admitted, both lanes. */
    std::uint64_t accepted() const { return accepted_.load(); }
    /** Rejected: maxDepth requests already waiting. */
    std::uint64_t shed() const { return shed_.load(); }
    /** Rejected: deadline passed before the engine ran. */
    std::uint64_t expired() const { return expired_.load(); }
    /** Answered by the engine. */
    std::uint64_t processed() const { return processed_.load(); }

  private:
    using Clock = std::chrono::steady_clock;

    struct Pending
    {
        ServiceRequest req;
        std::promise<ServiceResponse> promise;
        Clock::time_point admitted;
        Clock::time_point deadline; ///< valid when has_deadline
        bool has_deadline = false;
    };

    void workerLoop();
    /** Deadline check, then the engine; either way answers @p p. */
    void serve(Pending &p);
    void answer(Pending &p, ServiceResponse resp);

    ServiceEngine &engine_;
    const AdmissionConfig cfg_;

    std::mutex mutex_;
    std::condition_variable wake_cv_;
    std::deque<Pending> queue_; ///< exact searches only
    bool stop_ = false;

    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> expired_{0};
    std::atomic<std::uint64_t> processed_{0};

    std::thread worker_;
};

} // namespace jitsched

#endif // JITSCHED_SERVICE_ADMISSION_HH
