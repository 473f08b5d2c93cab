#include "service/policy.hh"

#include <utility>

#include <cstdlib>

#include "core/astar.hh"
#include "core/astar_par.hh"
#include "core/iar.hh"
#include "core/lower_bound.hh"
#include "core/single_level.hh"
#include "exec/batch_eval.hh"
#include "exec/thread_pool.hh"
#include "support/logging.hh"
#include "vm/adaptive_runtime.hh"
#include "vm/v8_policy.hh"

namespace jitsched {

namespace {

/** The cost-benefit configuration a request's model option selects. */
CostBenefitConfig
modelConfig(const ServiceOptions &opts)
{
    CostBenefitConfig cfg;
    cfg.kind = opts.model;
    return cfg;
}

SimOptions
simOptions(const ServiceOptions &opts)
{
    SimOptions so;
    so.compileCores = opts.compileCores;
    so.execJitterSigma = opts.jitterSigma;
    so.jitterSeed = opts.jitterSeed;
    return so;
}

/**
 * Common shape of the static-schedule policies: pick candidates under
 * the requested model, build one schedule, evaluate it through the
 * shared cache.
 */
template <typename BuildSchedule>
PolicyOutcome
staticOutcome(const Workload &w, const ServiceOptions &opts,
              BatchEvaluator &eval, BuildSchedule &&build)
{
    const std::vector<CandidatePair> cands =
        modelCandidateLevels(w, modelConfig(opts));
    PolicyOutcome out;
    out.lowerBound = lowerBoundCandidates(w, cands);
    out.schedule = build(cands);
    out.hasSchedule = true;
    out.sim = eval.evaluateOne(w, out.schedule, simOptions(opts));
    out.hasSim = true;
    return out;
}

class IarPolicy final : public SchedulerPolicy
{
  public:
    const char *name() const override { return "iar"; }
    const char *
    describe() const override
    {
        return "IAR heuristic (Sec. 5.1): near-optimal static "
               "schedule";
    }

    PolicyOutcome
    run(const Workload &w, const ServiceOptions &opts,
        BatchEvaluator &eval) const override
    {
        return staticOutcome(w, opts, eval, [&](const auto &cands) {
            return iarSchedule(w, cands).schedule;
        });
    }
};

class BaseOnlyPolicy final : public SchedulerPolicy
{
  public:
    const char *name() const override { return "base-only"; }
    const char *
    describe() const override
    {
        return "single-level approximation at the most responsive "
               "level";
    }

    PolicyOutcome
    run(const Workload &w, const ServiceOptions &opts,
        BatchEvaluator &eval) const override
    {
        return staticOutcome(w, opts, eval, [&](const auto &cands) {
            return baseLevelSchedule(w, cands);
        });
    }
};

class OptOnlyPolicy final : public SchedulerPolicy
{
  public:
    const char *name() const override { return "opt-only"; }
    const char *
    describe() const override
    {
        return "single-level approximation at the cost-effective "
               "level";
    }

    PolicyOutcome
    run(const Workload &w, const ServiceOptions &opts,
        BatchEvaluator &eval) const override
    {
        return staticOutcome(w, opts, eval, [&](const auto &cands) {
            return optimizingLevelSchedule(w, cands);
        });
    }
};

class LowerBoundPolicy final : public SchedulerPolicy
{
  public:
    const char *name() const override { return "lower-bound"; }
    const char *
    describe() const override
    {
        return "make-span lower bound only (Sec. 5.2); no schedule";
    }

    PolicyOutcome
    run(const Workload &w, const ServiceOptions &opts,
        BatchEvaluator &) const override
    {
        PolicyOutcome out;
        out.lowerBound = lowerBoundCandidates(
            w, modelCandidateLevels(w, modelConfig(opts)));
        return out;
    }
};

class AStarPolicy final : public SchedulerPolicy
{
  public:
    const char *name() const override { return "astar"; }
    bool exactSearch() const override { return true; }
    const char *
    describe() const override
    {
        return "A* optimal search (Sec. 5.3); refuses past its "
               "expansion/memory budget";
    }

    PolicyOutcome
    run(const Workload &w, const ServiceOptions &opts,
        BatchEvaluator &eval) const override
    {
        AStarConfig cfg;
        cfg.memoryBudget = opts.astarMemoryMb << 20;
        cfg.maxExpansions = opts.astarMaxExpansions;
        cfg.pool = &eval.pool();
        const AStarResult res = aStarOptimal(w, cfg);

        PolicyOutcome out;
        out.lowerBound = lowerBoundCandidates(
            w, modelCandidateLevels(w, modelConfig(opts)));
        if (res.status != AStarStatus::Optimal) {
            out.ok = false;
            out.error = detail::concat(
                "A* gave up without an optimal schedule (",
                res.status == AStarStatus::OutOfMemory
                    ? "node store exceeded the memory budget"
                    : "expansion cap hit",
                " after ", res.nodesExpanded, " expansions)");
            return out;
        }
        out.schedule = res.schedule;
        out.hasSchedule = true;
        out.sim = eval.evaluateOne(w, out.schedule, simOptions(opts));
        out.hasSim = true;
        return out;
    }
};

class AStarParPolicy final : public SchedulerPolicy
{
  public:
    const char *name() const override { return "astar-par"; }
    bool exactSearch() const override { return true; }
    const char *
    describe() const override
    {
        return "hash-distributed parallel anytime A* "
               "(core/astar_par.hh); optimal when it finishes, best "
               "incumbent when a budget trips";
    }

    PolicyOutcome
    run(const Workload &w, const ServiceOptions &opts,
        BatchEvaluator &eval) const override
    {
        AStarConfig cfg;
        cfg.memoryBudget = opts.astarMemoryMb << 20;
        cfg.maxExpansions = opts.astarMaxExpansions;
        // Worker-count precedence: explicit request option, then
        // JITSCHED_THREADS (strict-parse: non-numeric or < 1 is a
        // configuration error), then hardware concurrency (0).
        cfg.threads =
            opts.astarThreads != 0
                ? opts.astarThreads
                : ThreadPool::parseThreadsEnv(
                      std::getenv("JITSCHED_THREADS"));
        // A request deadline doubles as the anytime budget: a client
        // that bounded its wait gets the best incumbent by then
        // instead of a refusal.
        if (opts.deadlineMs > 0)
            cfg.anytimeDeadlineMs = opts.deadlineMs;
        const AStarResult res = aStarParallel(w, cfg);

        // Anytime contract: both Optimal and Incumbent carry a valid
        // schedule, so this policy never refuses.
        PolicyOutcome out;
        out.lowerBound = lowerBoundCandidates(
            w, modelCandidateLevels(w, modelConfig(opts)));
        out.schedule = res.schedule;
        out.hasSchedule = true;
        out.sim = eval.evaluateOne(w, out.schedule, simOptions(opts));
        out.hasSim = true;
        return out;
    }
};

class JikesPolicy final : public SchedulerPolicy
{
  public:
    const char *name() const override { return "jikes"; }
    const char *
    describe() const override
    {
        return "Jikes RVM adaptive scheme replayed online "
               "(Sec. 6.2.1); reports the induced schedule";
    }

    PolicyOutcome
    run(const Workload &w, const ServiceOptions &opts,
        BatchEvaluator &) const override
    {
        const CostBenefitConfig mcfg = modelConfig(opts);
        AdaptiveConfig acfg;
        acfg.compileCores = opts.compileCores;
        acfg.samplePeriod = defaultSamplePeriod(w);
        const RuntimeResult rr =
            runAdaptive(w, buildEstimates(w, mcfg), acfg);

        PolicyOutcome out;
        out.lowerBound = lowerBoundCandidates(
            w, modelCandidateLevels(w, mcfg));
        out.schedule = rr.inducedSchedule;
        out.hasSchedule = true;
        out.sim = rr.sim;
        out.hasSim = true;
        return out;
    }
};

class V8SchemePolicy final : public SchedulerPolicy
{
  public:
    const char *name() const override { return "v8"; }
    const char *
    describe() const override
    {
        return "V8 scheme on the two lowest levels (Sec. 6.2.4); "
               "reports the induced schedule";
    }

    PolicyOutcome
    run(const Workload &w, const ServiceOptions &opts,
        BatchEvaluator &) const override
    {
        // The paper applies V8's scheme with the JIT restricted to
        // the two lowest levels; the bound is computed on the same
        // restricted instance so the gap is meaningful (Fig. 8).
        const Workload restricted = w.restrictLevels(2);
        V8Config vcfg;
        vcfg.compileCores = opts.compileCores;
        const RuntimeResult rr = runV8(restricted, vcfg);

        PolicyOutcome out;
        out.lowerBound = lowerBoundCandidates(
            restricted,
            modelCandidateLevels(restricted, modelConfig(opts)));
        out.schedule = rr.inducedSchedule;
        out.hasSchedule = true;
        out.sim = rr.sim;
        out.hasSim = true;
        return out;
    }
};

} // anonymous namespace

void
PolicyRegistry::registerPolicy(std::unique_ptr<SchedulerPolicy> policy)
{
    if (policy == nullptr)
        JITSCHED_PANIC("PolicyRegistry: null policy");
    const std::string key = policy->name();
    policies_[key] = std::move(policy);
}

const SchedulerPolicy *
PolicyRegistry::find(const std::string &name) const
{
    const auto it = policies_.find(name);
    return it == policies_.end() ? nullptr : it->second.get();
}

std::vector<std::string>
PolicyRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(policies_.size());
    for (const auto &[name, policy] : policies_)
        out.push_back(name);
    return out;
}

void
registerBuiltinPolicies(PolicyRegistry &reg)
{
    reg.registerPolicy(std::make_unique<IarPolicy>());
    reg.registerPolicy(std::make_unique<AStarPolicy>());
    reg.registerPolicy(std::make_unique<AStarParPolicy>());
    reg.registerPolicy(std::make_unique<BaseOnlyPolicy>());
    reg.registerPolicy(std::make_unique<OptOnlyPolicy>());
    reg.registerPolicy(std::make_unique<LowerBoundPolicy>());
    reg.registerPolicy(std::make_unique<JikesPolicy>());
    reg.registerPolicy(std::make_unique<V8SchemePolicy>());
}

const PolicyRegistry &
PolicyRegistry::builtin()
{
    static const PolicyRegistry &reg = []() -> PolicyRegistry & {
        static PolicyRegistry r;
        registerBuiltinPolicies(r);
        return r;
    }();
    return reg;
}

} // namespace jitsched
