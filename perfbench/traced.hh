/**
 * @file
 * The traced pass: a seeded sample of a workload's requests replayed
 * in-process through each layer's public functions, with a
 * benchmark-side span around every call.  Its numbers are per-layer
 * only; end-to-end metrics always come from the untraced load run.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <map>
#include <string>
#include <vector>

#include "requests.hh"

namespace perfbench {

struct TracedInput
{
    unsigned nproc = 1;
    std::vector<RequestSpec> iar;      ///< short-class sample
    std::vector<ExactInstance> exact;  ///< exact-solve sample
};

/**
 * Replay @p in untraced and traced (alternating, twice each), write
 * the last traced pass's spans as a Chrome trace to @p trace_out,
 * and return the per-layer metrics by name.
 */
std::map<std::string, double> runTraced(const TracedInput &in,
                                        const std::string &trace_out);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
