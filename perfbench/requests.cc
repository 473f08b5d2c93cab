#include "requests.hh"

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/astar.hh"
#include "support/rng.hh"
#include "trace/synthetic.hh"

namespace perfbench {

namespace {

using namespace jitsched;

/** Separates the exact-family candidate streams from the iar ones. */
constexpr std::uint64_t kExactStream = 0x6a697473636865ull;

std::uint32_t
logUniform(Rng &rng, double lo, double hi)
{
    return static_cast<std::uint32_t>(
        std::exp(std::log(lo) + rng.nextDouble() * std::log(hi / lo)));
}

SyntheticConfig
exactFamily(std::uint64_t workload_seed)
{
    SyntheticConfig cfg;
    cfg.name = "exact";
    cfg.numFunctions = 6;
    cfg.numCalls = 40;
    cfg.numLevels = 3;
    cfg.numPhases = 2;
    cfg.seed = workload_seed;
    return cfg;
}

} // namespace

RequestSpec
iarSpec(std::uint64_t seed, std::uint64_t index)
{
    Rng rng = Rng::caseStream(seed, index);
    RequestSpec spec;
    spec.kind = Kind::Iar;
    spec.functions = logUniform(rng, 20.0, 200.0);
    spec.calls = logUniform(rng, 500.0, 5000.0);
    spec.workloadSeed = rng.next();
    return spec;
}

Workload
makeWorkload(const RequestSpec &spec)
{
    if (spec.kind == Kind::Exact)
        return generateSynthetic(exactFamily(spec.workloadSeed));
    SyntheticConfig cfg;
    cfg.name = "iar";
    cfg.numFunctions = spec.functions;
    cfg.numCalls = spec.calls;
    cfg.seed = spec.workloadSeed;
    return generateSynthetic(cfg);
}

ServiceRequest
makeRequest(const RequestSpec &spec, std::uint64_t id)
{
    ServiceRequest req;
    req.id = id;
    if (spec.kind == Kind::Exact) {
        req.policy = spec.parallel ? "astar-par" : "astar";
        req.options.compileCores = 2;
        if (spec.parallel)
            req.options.astarThreads = 2;
    } else {
        req.policy = "iar";
    }
    req.workload = makeWorkload(spec);
    return req;
}

std::string
frameText(const RequestSpec &spec, std::uint64_t id)
{
    return requestText(makeRequest(spec, id));
}

std::vector<ExactInstance>
exactPool(std::uint64_t seed, std::size_t count,
          std::uint64_t min_expansions, std::uint64_t max_expansions,
          std::size_t threads)
{
    threads = std::max<std::size_t>(threads, 1);
    const std::size_t round = 4 * threads;
    std::vector<ExactInstance> pool;
    for (std::uint64_t base = 0; pool.size() < count; base += round) {
        std::vector<ExactInstance> found(round);
        std::vector<std::thread> workers;
        for (std::size_t t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                for (std::size_t i = t; i < round; i += threads) {
                    Rng rng = Rng::caseStream(seed ^ kExactStream,
                                              base + i);
                    const std::uint64_t ws = rng.next();
                    AStarConfig cfg;
                    cfg.maxExpansions = max_expansions;
                    const AStarResult res = aStarOptimal(
                        generateSynthetic(exactFamily(ws)), cfg);
                    if (res.status == AStarStatus::Optimal &&
                        res.nodesExpanded >= min_expansions)
                        found[i] = {ws, res.nodesExpanded};
                }
            });
        }
        for (std::thread &w : workers)
            w.join();
        for (const ExactInstance &inst : found)
            if (inst.expansions != 0 && pool.size() < count)
                pool.push_back(inst);
    }
    return pool;
}

RequestSpec
exactSpec(const ExactInstance &inst, bool parallel)
{
    RequestSpec spec;
    spec.kind = Kind::Exact;
    spec.workloadSeed = inst.workloadSeed;
    spec.parallel = parallel;
    return spec;
}

} // namespace perfbench
