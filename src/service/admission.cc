#include "service/admission.hh"

#include <utility>

#include "obs/instruments.hh"
#include "obs/span.hh"

namespace jitsched {

namespace {

/** Set a refusal on @p promise; the request never reached a lane. */
void
refuse(std::promise<ServiceResponse> &promise,
       const ServiceRequest &req, const char *code,
       const std::string &message)
{
    ServiceResponse resp = makeErrorResponse(req.id, code, message);
    resp.stats.traceId = req.traceId;
    promise.set_value(std::move(resp));
}

} // anonymous namespace

AdmissionQueue::AdmissionQueue(ServiceEngine &engine,
                               AdmissionConfig cfg)
    : engine_(engine), cfg_(cfg)
{
    worker_ = std::thread([this] { workerLoop(); });
}

AdmissionQueue::~AdmissionQueue()
{
    stop();
}

std::future<ServiceResponse>
AdmissionQueue::submit(ServiceRequest req)
{
    // Unknown policies take the inline lane: the engine answers them
    // with a structured error at once.
    const SchedulerPolicy *policy = engine_.registry().find(req.policy);
    const bool exact = policy != nullptr && policy->exactSearch();

    Pending p;
    p.admitted = Clock::now();
    if (req.options.deadlineMs >= 0) {
        p.deadline = p.admitted +
                     std::chrono::milliseconds(req.options.deadlineMs);
        p.has_deadline = true;
    }
    p.req = std::move(req);
    std::future<ServiceResponse> future = p.promise.get_future();

    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (stop_) {
            refuse(p.promise, p.req, errcode::unavailable,
                   "service is shutting down");
            return future;
        }
        // Only exact searches ever wait; a linear-time request waits
        // behind nobody, so it is shed only when maxDepth is 0.
        if ((exact ? queue_.size() : 0) >= cfg_.maxDepth) {
            ++shed_;
            JITSCHED_OBS(
                obs::ServiceMetrics::get().requestsShed.add());
            refuse(p.promise, p.req, errcode::resourceExhausted,
                   "admission queue full (" +
                       std::to_string(cfg_.maxDepth) +
                       " pending requests); retry later");
            return future;
        }
        ++accepted_;
        JITSCHED_OBS(
            obs::ServiceMetrics::get().requestsAccepted.add());
        if (exact) {
            queue_.push_back(std::move(p));
            JITSCHED_OBS(obs::ServiceMetrics::get().queueDepth.set(
                static_cast<std::int64_t>(queue_.size())));
        }
    }
    if (exact)
        wake_cv_.notify_one();
    else
        serve(p);
    return future;
}

void
AdmissionQueue::serve(Pending &p)
{
    // >=, so a 0 ms deadline expires deterministically in both lanes
    // rather than depending on whether the clock ticked since submit.
    if (p.has_deadline && Clock::now() >= p.deadline) {
        ++expired_;
        JITSCHED_OBS(obs::ServiceMetrics::get().requestsExpired.add());
        answer(p, makeErrorResponse(
                      p.req.id, errcode::deadlineExceeded,
                      "request waited past its " +
                          std::to_string(p.req.options.deadlineMs) +
                          " ms deadline"));
        return;
    }
    // The admission-wait span covers submit() -> this moment (near
    // zero on the inline lane); the solve span nests inside
    // engine_.serve().
    obs::SpanCollector::global().recordBetween(
        p.req.traceId, "service.admission_wait", p.admitted,
        Clock::now());
    ServiceResponse resp = engine_.serve(p.req);
    ++processed_;
    JITSCHED_OBS(obs::ServiceMetrics::get().requestsProcessed.add());
    answer(p, std::move(resp));
}

void
AdmissionQueue::answer(Pending &p, ServiceResponse resp)
{
    // Error paths (expired, stopped) build their response via
    // makeErrorResponse, which never saw the request's trace id.
    resp.stats.traceId = p.req.traceId;
    resp.stats.queueNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - p.admitted)
            .count() -
        resp.stats.solveNs;
    if (resp.stats.queueNs < 0)
        resp.stats.queueNs = 0;
    JITSCHED_OBS(obs::ServiceMetrics::get().queueWaitNs.observe(
        resp.stats.queueNs));
    p.promise.set_value(std::move(resp));
}

void
AdmissionQueue::workerLoop()
{
    for (;;) {
        std::unique_lock<std::mutex> lk(mutex_);
        wake_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
        // stop() takes the queue over and answers it.
        if (stop_)
            return;
        Pending p = std::move(queue_.front());
        queue_.pop_front();
        JITSCHED_OBS(obs::ServiceMetrics::get().queueDepth.set(
            static_cast<std::int64_t>(queue_.size())));
        lk.unlock();
        serve(p);
    }
}

void
AdmissionQueue::stop()
{
    std::deque<Pending> orphans;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (stop_ && !worker_.joinable())
            return;
        stop_ = true;
        orphans.swap(queue_);
        JITSCHED_OBS(obs::ServiceMetrics::get().queueDepth.set(0));
    }
    wake_cv_.notify_all();
    // Answered before the join, so the orphans do not also wait out
    // the search the worker is finishing.
    for (Pending &p : orphans)
        answer(p, makeErrorResponse(
                      p.req.id, errcode::unavailable,
                      "service stopped before the request was served"));
    if (worker_.joinable())
        worker_.join();
}

void
AdmissionQueue::restart()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!stop_)
            return; // never stopped (or already restarted)
        stop_ = false;
    }
    // stop() joined the old worker before clearing any path here, so
    // the thread object is safe to reuse.
    worker_ = std::thread([this] { workerLoop(); });
}

} // namespace jitsched
