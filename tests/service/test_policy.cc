/**
 * @file
 * Policy-registry tests: the eight built-in policies resolve by name
 * and produce sane outcomes on the paper's worked example — schedules
 * whose make-spans respect the lower bound, an A* that is at least as
 * good as IAR, and explicit refusals when A*'s budget is tiny.
 */

#include <gtest/gtest.h>

#include "exec/batch_eval.hh"
#include "exec/eval_cache.hh"
#include "exec/thread_pool.hh"
#include "service/policy.hh"
#include "trace/paper_examples.hh"

namespace jitsched {
namespace {

class PolicyTest : public ::testing::Test
{
  protected:
    PolicyOutcome
    run(const std::string &name, const Workload &w,
        const ServiceOptions &opts = {})
    {
        const SchedulerPolicy *p =
            PolicyRegistry::builtin().find(name);
        EXPECT_NE(p, nullptr) << name;
        return p->run(w, opts, eval_);
    }

    ThreadPool pool_{2};
    EvalCache cache_;
    BatchEvaluator eval_{pool_, &cache_};
};

TEST_F(PolicyTest, BuiltinRegistryHoldsTheEightPolicies)
{
    const PolicyRegistry &reg = PolicyRegistry::builtin();
    EXPECT_EQ(reg.size(), 8u);
    const std::vector<std::string> expected = {
        "astar", "astar-par", "base-only", "iar",
        "jikes", "lower-bound", "opt-only", "v8"};
    EXPECT_EQ(reg.names(), expected);
    for (const std::string &name : expected) {
        const SchedulerPolicy *p = reg.find(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->name(), name);
        EXPECT_NE(std::string(p->describe()), "");
    }
    EXPECT_EQ(reg.find("no-such-policy"), nullptr);
}

TEST_F(PolicyTest, OnlyTheSearchesAreExact)
{
    // The admission queue's lane split: exact searches queue for its
    // worker, everything else is served inline.
    const PolicyRegistry &reg = PolicyRegistry::builtin();
    for (const std::string &name : reg.names()) {
        SCOPED_TRACE(name);
        EXPECT_EQ(reg.find(name)->exactSearch(),
                  name == "astar" || name == "astar-par");
    }
}

TEST_F(PolicyTest, StaticPoliciesRespectTheLowerBound)
{
    const Workload w = figure1Workload();
    for (const std::string name : {"iar", "base-only", "opt-only"}) {
        SCOPED_TRACE(name);
        const PolicyOutcome out = run(name, w);
        EXPECT_TRUE(out.ok);
        EXPECT_TRUE(out.hasSchedule);
        ASSERT_TRUE(out.hasSim);
        EXPECT_GT(out.lowerBound, 0);
        EXPECT_GE(out.sim.makespan, out.lowerBound);
    }
}

TEST_F(PolicyTest, LowerBoundPolicyOmitsTheSchedule)
{
    const PolicyOutcome out = run("lower-bound", figure1Workload());
    EXPECT_TRUE(out.ok);
    EXPECT_FALSE(out.hasSchedule);
    EXPECT_FALSE(out.hasSim);
    EXPECT_GT(out.lowerBound, 0);
}

TEST_F(PolicyTest, AStarIsAtLeastAsGoodAsIar)
{
    const Workload w = figure2Workload();
    const PolicyOutcome iar = run("iar", w);
    const PolicyOutcome astar = run("astar", w);
    ASSERT_TRUE(astar.ok) << astar.error;
    ASSERT_TRUE(astar.hasSim);
    EXPECT_LE(astar.sim.makespan, iar.sim.makespan);
    EXPECT_GE(astar.sim.makespan, astar.lowerBound);
}

TEST_F(PolicyTest, AStarRefusesExplicitlyWhenBudgetIsTiny)
{
    ServiceOptions opts;
    opts.astarMaxExpansions = 1;
    const PolicyOutcome out =
        run("astar", figure2Workload(), opts);
    EXPECT_FALSE(out.ok);
    EXPECT_FALSE(out.error.empty());
}

TEST_F(PolicyTest, AStarParMatchesAStarAtEveryWorkerCount)
{
    const Workload w = figure2Workload();
    const PolicyOutcome seq = run("astar", w);
    ASSERT_TRUE(seq.ok) << seq.error;
    ASSERT_TRUE(seq.hasSim);
    for (const std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(threads);
        ServiceOptions opts;
        opts.astarThreads = threads;
        const PolicyOutcome par = run("astar-par", w, opts);
        ASSERT_TRUE(par.ok) << par.error;
        ASSERT_TRUE(par.hasSchedule);
        ASSERT_TRUE(par.hasSim);
        EXPECT_EQ(par.sim.makespan, seq.sim.makespan);
        EXPECT_EQ(par.lowerBound, seq.lowerBound);
    }
}

TEST_F(PolicyTest, AStarParNeverRefusesUnderATinyBudget)
{
    // Where the sequential policy refuses, the anytime policy
    // answers with its incumbent (the IAR seed or better) — a valid
    // schedule whose make-span still respects the lower bound.
    ServiceOptions opts;
    opts.astarMaxExpansions = 1;
    opts.astarThreads = 2;
    const PolicyOutcome out =
        run("astar-par", figure2Workload(), opts);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_TRUE(out.hasSchedule);
    ASSERT_TRUE(out.hasSim);
    EXPECT_GE(out.sim.makespan, out.lowerBound);
}

TEST_F(PolicyTest, OnlinePoliciesProduceInducedSchedules)
{
    const Workload w = figure2Workload();
    for (const std::string name : {"jikes", "v8"}) {
        SCOPED_TRACE(name);
        const PolicyOutcome out = run(name, w);
        EXPECT_TRUE(out.ok);
        EXPECT_TRUE(out.hasSchedule);
        ASSERT_TRUE(out.hasSim);
        EXPECT_GT(out.sim.makespan, 0);
    }
}

TEST_F(PolicyTest, PoliciesAreDeterministic)
{
    const Workload w = figure2Workload();
    for (const std::string name :
         {"iar", "astar", "base-only", "opt-only", "jikes", "v8"}) {
        SCOPED_TRACE(name);
        const PolicyOutcome a = run(name, w);
        const PolicyOutcome b = run(name, w);
        ASSERT_EQ(a.ok, b.ok);
        EXPECT_EQ(a.lowerBound, b.lowerBound);
        if (a.hasSim)
            EXPECT_EQ(a.sim.makespan, b.sim.makespan);
        if (a.hasSchedule)
            EXPECT_EQ(a.schedule.events(), b.schedule.events());
    }
}

TEST_F(PolicyTest, StaticEvaluationsGoThroughTheSharedCache)
{
    const Workload w = figure1Workload();
    run("iar", w);
    const std::uint64_t misses_after_first = cache_.misses();
    run("iar", w);
    EXPECT_GT(cache_.hits(), 0u);
    EXPECT_EQ(cache_.misses(), misses_after_first);
}

} // anonymous namespace
} // namespace jitsched
