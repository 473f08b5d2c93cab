/**
 * @file
 * Admission-queue tests: futures always become ready, duplicate
 * requests ride the cache, overload is shed with RESOURCE_EXHAUSTED,
 * stale requests expire with DEADLINE_EXCEEDED, and shutdown answers
 * everything still pending — each in both lanes: linear-time
 * policies served inline on the submitting thread, exact searches
 * queued for the single worker.  Linear-time requests never wait
 * behind an exact search.
 */

#include <chrono>
#include <condition_variable>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/admission.hh"
#include "service/engine.hh"
#include "trace/paper_examples.hh"
#include "trace/synthetic.hh"

namespace jitsched {
namespace {

using namespace std::chrono_literals;

ServiceRequest
makeRequest(std::uint64_t id, const std::string &policy,
            Workload w)
{
    ServiceRequest req;
    req.id = id;
    req.policy = policy;
    req.workload = std::move(w);
    return req;
}

bool
isReady(std::future<ServiceResponse> &f)
{
    return f.wait_for(0s) == std::future_status::ready;
}

/** Open/closed latch a GatePolicy run blocks on. */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool open = false;

    void
    waitEntered()
    {
        std::unique_lock<std::mutex> lk(mutex);
        cv.wait(lk, [&] { return entered; });
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lk(mutex);
            open = true;
        }
        cv.notify_all();
    }
};

/**
 * An exact-lane policy that holds the worker until its gate opens:
 * the deterministic stand-in for a long A* search.
 */
class GatePolicy final : public SchedulerPolicy
{
  public:
    explicit GatePolicy(Gate &gate) : gate_(gate) {}

    const char *name() const override { return "gate"; }
    const char *describe() const override { return "blocks"; }
    bool exactSearch() const override { return true; }

    PolicyOutcome
    run(const Workload &, const ServiceOptions &,
        BatchEvaluator &) const override
    {
        std::unique_lock<std::mutex> lk(gate_.mutex);
        gate_.entered = true;
        gate_.cv.notify_all();
        gate_.cv.wait(lk, [&] { return gate_.open; });
        return {};
    }

  private:
    Gate &gate_;
};

/** The built-in policies plus "gate", and an engine over them. */
struct GatedEngine
{
    Gate gate;
    PolicyRegistry registry;
    std::unique_ptr<ServiceEngine> engine;

    GatedEngine()
    {
        registerBuiltinPolicies(registry);
        registry.registerPolicy(std::make_unique<GatePolicy>(gate));
        engine = std::make_unique<ServiceEngine>(registry);
    }
};

/** Synthetic workloads distinct per @p seed, cheap for every policy. */
Workload
smallWorkload(std::uint64_t seed)
{
    SyntheticConfig cfg;
    cfg.name = "small-" + std::to_string(seed);
    cfg.numFunctions = 12;
    cfg.numCalls = 300;
    cfg.seed = seed;
    return generateSynthetic(cfg);
}

TEST(AdmissionQueue, ServesAValidRequest)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    auto future =
        queue.submit(makeRequest(1, "iar", figure1Workload()));
    const ServiceResponse resp = future.get();
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.id, 1u);
    EXPECT_EQ(resp.policy, "iar");
    EXPECT_TRUE(resp.hasSchedule);
    EXPECT_GE(resp.stats.queueNs, 0);
    EXPECT_GT(resp.stats.solveNs, 0);
    EXPECT_EQ(queue.processed(), 1u);
    EXPECT_EQ(queue.accepted(), 1u);
}

TEST(AdmissionQueue, EngineErrorsComeBackStructured)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    auto future = queue.submit(
        makeRequest(2, "no-such-policy", figure1Workload()));
    const ServiceResponse resp = future.get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errcode::invalidArgument);
}

TEST(AdmissionQueue, DuplicateRequestsHitTheCache)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    const ServiceResponse first =
        queue.submit(makeRequest(1, "iar", figure1Workload())).get();
    const ServiceResponse second =
        queue.submit(makeRequest(2, "iar", figure1Workload())).get();
    ASSERT_TRUE(first.ok);
    ASSERT_TRUE(second.ok);
    // The repeat evaluation is answered from the EvalCache: the
    // response-embedded counters show hits and no new misses.
    EXPECT_GT(second.stats.cacheHits, 0u);
    EXPECT_EQ(second.stats.cacheMisses, 0u);
    // And the answers agree, as duplicates must.
    EXPECT_EQ(first.sim.makespan, second.sim.makespan);
    EXPECT_EQ(first.schedule.size(), second.schedule.size());
}

TEST(AdmissionQueue, ZeroDepthQueueShedsEverything)
{
    ServiceEngine engine;
    AdmissionConfig cfg;
    cfg.maxDepth = 0;
    AdmissionQueue queue(engine, cfg);
    // Both lanes: the inline one and the exact queue.
    std::uint64_t id = 3;
    for (const char *policy : {"iar", "astar"}) {
        SCOPED_TRACE(policy);
        ServiceRequest req =
            makeRequest(id, policy, figure1Workload());
        req.traceId = 0x5eed0 + id;
        const ServiceResponse resp =
            queue.submit(std::move(req)).get();
        EXPECT_FALSE(resp.ok);
        EXPECT_EQ(resp.code, errcode::resourceExhausted);
        EXPECT_EQ(resp.id, id);
        EXPECT_EQ(resp.stats.traceId, 0x5eed0 + id);
        ++id;
    }
    EXPECT_EQ(queue.shed(), 2u);
    EXPECT_EQ(queue.accepted(), 0u);
    EXPECT_EQ(queue.processed(), 0u);
}

TEST(AdmissionQueue, InlineRequestsExpireAtAZeroDeadline)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    ServiceRequest stale = makeRequest(5, "iar", figure1Workload());
    stale.options.deadlineMs = 0;
    auto future = queue.submit(std::move(stale));
    ASSERT_TRUE(isReady(future)); // answered on this thread
    const ServiceResponse resp = future.get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errcode::deadlineExceeded);
    EXPECT_EQ(queue.expired(), 1u);
    EXPECT_EQ(queue.processed(), 0u);
}

TEST(AdmissionQueue, StaleRequestsExpire)
{
    GatedEngine ge;
    AdmissionQueue queue(*ge.engine);
    // Occupy the worker, then queue an exact search whose deadline
    // has passed by the time its turn comes.
    auto slow = queue.submit(makeRequest(4, "gate", figure1Workload()));
    ge.gate.waitEntered();
    ServiceRequest stale = makeRequest(5, "astar", figure1Workload());
    stale.options.deadlineMs = 0;
    auto stale_future = queue.submit(std::move(stale));
    EXPECT_FALSE(isReady(stale_future));
    ge.gate.release();
    const ServiceResponse resp = stale_future.get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errcode::deadlineExceeded);
    EXPECT_EQ(queue.expired(), 1u);
    EXPECT_TRUE(slow.get().ok);
}

TEST(AdmissionQueue, StopAnswersInsteadOfHanging)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    queue.stop();
    for (const char *policy : {"iar", "astar"}) {
        SCOPED_TRACE(policy);
        const ServiceResponse resp =
            queue.submit(makeRequest(6, policy, figure1Workload()))
                .get();
        EXPECT_FALSE(resp.ok);
        EXPECT_EQ(resp.code, errcode::unavailable);
    }
    queue.stop(); // idempotent
    EXPECT_EQ(queue.accepted(), 0u);
}

TEST(AdmissionQueue, StopAnswersQueuedExactRequestsWithTheirTraceIds)
{
    GatedEngine ge;
    AdmissionQueue queue(*ge.engine);
    auto slow = queue.submit(makeRequest(7, "gate", figure1Workload()));
    ge.gate.waitEntered();
    ServiceRequest queued = makeRequest(8, "astar", figure1Workload());
    queued.traceId = 0xfeedbeef;
    auto orphan = queue.submit(std::move(queued));

    // stop() answers the orphan before it joins the busy worker.
    auto stopped =
        std::async(std::launch::async, [&] { queue.stop(); });
    const bool answered_before_join =
        orphan.wait_for(60s) == std::future_status::ready;
    ge.gate.release();
    stopped.get();
    ASSERT_TRUE(answered_before_join);
    const ServiceResponse resp = orphan.get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, errcode::unavailable);
    EXPECT_EQ(resp.id, 8u);
    EXPECT_EQ(resp.stats.traceId, 0xfeedbeefu);
    EXPECT_GT(resp.stats.queueNs, 0);
    EXPECT_TRUE(slow.get().ok);
    EXPECT_EQ(queue.processed(), 1u);
}

TEST(AdmissionQueue, InlinePoliciesDoNotWaitBehindTheExactWorker)
{
    GatedEngine ge;
    AdmissionQueue queue(*ge.engine);
    auto slow = queue.submit(makeRequest(9, "gate", figure1Workload()));
    ge.gate.waitEntered();
    // The worker is held; every linear-time policy still answers on
    // this thread, and an exact search queues behind the gate.
    std::vector<std::future<ServiceResponse>> futures;
    std::uint64_t id = 10;
    for (const char *policy : {"iar", "base-only", "opt-only",
                               "lower-bound", "jikes", "v8"}) {
        futures.push_back(queue.submit(
            makeRequest(id++, policy, figure2Workload())));
        EXPECT_TRUE(isReady(futures.back())) << policy;
    }
    futures.push_back(
        queue.submit(makeRequest(id, "astar", figure2Workload())));
    EXPECT_FALSE(isReady(futures.back()));
    ge.gate.release();
    for (auto &f : futures)
        EXPECT_TRUE(f.get().ok);
    EXPECT_TRUE(slow.get().ok);
    EXPECT_EQ(queue.processed(), 8u);
}

TEST(AdmissionQueue, ConcurrentInlineServesMatchSequentialServes)
{
    constexpr std::size_t kThreads = 8;
    const std::vector<std::string> policies = {
        "iar", "base-only", "opt-only", "lower-bound", "jikes", "v8"};
    std::vector<ServiceRequest> reqs;
    for (std::size_t i = 0; i < kThreads; ++i)
        reqs.push_back(makeRequest(i + 1,
                                   policies[i % policies.size()],
                                   smallWorkload(i + 1)));

    // Reference: the same requests served one after another by a
    // fresh engine.
    std::vector<std::string> want;
    {
        ServiceEngine reference;
        for (const ServiceRequest &req : reqs)
            want.push_back(
                responseText(reference.serve(req), false));
    }

    ServiceEngine engine;
    AdmissionQueue queue(engine);
    std::latch start(kThreads);
    std::vector<std::string> got(kThreads);
    std::vector<char> inline_served(kThreads, 0);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i)
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            auto f = queue.submit(reqs[i]);
            inline_served[i] = isReady(f);
            got[i] = responseText(f.get(), false);
        });
    for (std::thread &t : threads)
        t.join();
    for (std::size_t i = 0; i < kThreads; ++i) {
        SCOPED_TRACE(reqs[i].policy);
        EXPECT_TRUE(inline_served[i]);
        EXPECT_EQ(got[i], want[i]);
    }
    EXPECT_EQ(queue.processed(), kThreads);
}

TEST(AdmissionQueue, ManyConcurrentSubmittersAllGetAnswers)
{
    ServiceEngine engine;
    AdmissionQueue queue(engine);
    // Every fourth request is an exact search, so the worker's queue
    // holds several at once while the rest are served inline.
    std::vector<std::future<ServiceResponse>> futures;
    for (std::uint64_t i = 0; i < 32; ++i)
        futures.push_back(queue.submit(makeRequest(
            i + 1,
            i % 4 == 3   ? "astar"
            : i % 2 == 0 ? "iar"
                         : "base-only",
            i % 8 < 4 ? figure1Workload() : figure2Workload())));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const ServiceResponse resp = futures[i].get();
        EXPECT_TRUE(resp.ok) << resp.error;
        EXPECT_EQ(resp.id, i + 1);
    }
    EXPECT_EQ(queue.processed(), 32u);
}

} // anonymous namespace
} // namespace jitsched
