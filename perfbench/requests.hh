/**
 * @file
 * Seeded request generation for the benchmark's workloads.
 *
 * Every request the load generator sends is described by a small
 * RequestSpec, so the whole stream is a pure function of the
 * benchmark seed: frames are rendered from specs before timing, and
 * the output check regenerates each request's workload from its spec
 * instead of keeping thousands of workloads in memory.
 */

#ifndef PERFBENCH_REQUESTS_HH
#define PERFBENCH_REQUESTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hh"
#include "trace/workload.hh"

namespace perfbench {

/** The two request classes every workload reports separately. */
enum class Kind : std::uint8_t
{
    Iar,   ///< the short class: an `iar` request
    Exact, ///< the exact-solve class: `astar` or `astar-par`
};

/** One request, reproducible from these fields alone. */
struct RequestSpec
{
    Kind kind = Kind::Iar;
    std::uint64_t workloadSeed = 0;
    std::uint32_t functions = 0; ///< Iar only
    std::uint32_t calls = 0;     ///< Iar only
    bool parallel = false;       ///< Exact: astar-par (threads 2)
};

/**
 * An iar request with log-uniform size: 20-200 functions and
 * 500-5000 calls, so the parse-to-solve cost ratio varies from
 * request to request.
 */
RequestSpec iarSpec(std::uint64_t seed, std::uint64_t index);

/** The request's workload (deterministic in the spec). */
jitsched::Workload makeWorkload(const RequestSpec &spec);

/** The full request, workload included, carrying wire id @p id. */
jitsched::ServiceRequest makeRequest(const RequestSpec &spec,
                                     std::uint64_t id);

/** The request frame exactly as it goes on the wire. */
std::string frameText(const RequestSpec &spec, std::uint64_t id);

/** One instance of the exact-solve family with its solve effort. */
struct ExactInstance
{
    std::uint64_t workloadSeed = 0;
    std::uint64_t expansions = 0; ///< sequential A* expansions
};

/**
 * The exact-solve instance pool of a seed: instances of the bench
 * family (6 functions, 40 calls, 3 levels, 2 compile cores) whose
 * sequential A* search expands between @p minExpansions and
 * @p maxExpansions nodes.  The family's raw cost spans three orders
 * of magnitude, and about a quarter of its instances exceed the
 * astar policy's default expansion cap and would be refused; the
 * band keeps every request answerable and the class's cost steady
 * from seed to seed.  Candidates are screened on @p threads threads
 * in fixed-size rounds, so the pool does not depend on timing.
 */
std::vector<ExactInstance> exactPool(std::uint64_t seed,
                                     std::size_t count,
                                     std::uint64_t minExpansions,
                                     std::uint64_t maxExpansions,
                                     std::size_t threads);

/** An exact-class spec for a pool instance. */
RequestSpec exactSpec(const ExactInstance &inst, bool parallel);

} // namespace perfbench

#endif // PERFBENCH_REQUESTS_HH
