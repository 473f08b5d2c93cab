#include "traced.hh"

#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "cluster/harness.hh"
#include "core/astar.hh"
#include "core/astar_par.hh"
#include "obs/trace_event.hh"
#include "service/admission.hh"
#include "service/client.hh"
#include "service/engine.hh"
#include "service/result_cache.hh"
#include "sim/makespan.hh"
#include "support/stats.hh"

namespace perfbench {

namespace {

using namespace jitsched;
using Clock = std::chrono::steady_clock;

/** One benchmark-side span. */
struct Span
{
    std::string name;    ///< "<layer>.<call>"
    std::uint64_t request = 0;
    std::size_t parent = 0; ///< index + 1 of the parent span; 0 = root
    std::int64_t ts = 0;
    std::int64_t dur = 0;
};

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

/**
 * Span recorder.  Disabled, it still runs every call but records
 * nothing: the traced/untraced difference is the tracing overhead.
 */
class Recorder
{
  public:
    explicit Recorder(bool on) : on_(on), epoch_(Clock::now()) {}

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    /** Open a span; returns its handle (0 when disabled). */
    std::size_t
    open(const char *name, std::uint64_t request, std::size_t parent)
    {
        if (!on_)
            return 0;
        spans_.push_back({name, request, parent, now(), 0});
        return spans_.size();
    }

    void
    close(std::size_t handle)
    {
        if (handle != 0)
            spans_[handle - 1].dur = now() - spans_[handle - 1].ts;
    }

    /** A child whose interval the program reported, not the caller. */
    void
    derived(const char *name, std::uint64_t request,
            std::size_t parent, std::int64_t offset, std::int64_t dur)
    {
        if (!on_ || parent == 0)
            return;
        const Span &p = spans_[parent - 1];
        dur = std::clamp<std::int64_t>(dur, 0, p.dur);
        offset = std::clamp<std::int64_t>(offset, 0, p.dur - dur);
        spans_.push_back({name, request, parent, p.ts + offset, dur});
    }

    template <typename F>
    auto
    timed(const char *name, std::uint64_t request, std::size_t parent,
          F &&f)
    {
        const std::size_t h = open(name, request, parent);
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            close(h);
        } else {
            auto r = f();
            close(h);
            return r;
        }
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool on_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** Everything one replay pass touches, fresh per pass. */
struct Stack
{
    ServiceEngine queueEngine;
    AdmissionQueue queue{queueEngine, AdmissionConfig{}};
    ServiceEngine serveEngine;
    ServiceEngine policyEngine;
    ServiceEngine execEngine;
    ResultCache cache{ResultCacheConfig{std::size_t(64) << 20}};
    cluster::ClusterHarness harness;
    ServiceClient direct;
    ServiceClient routed;

    static cluster::ClusterHarnessConfig
    harnessConfig()
    {
        cluster::ClusterHarnessConfig cfg;
        cfg.backends = 1;
        cfg.backend.resultCacheBytes = std::size_t(64) << 20;
        return cfg;
    }

    Stack() : harness(harnessConfig())
    {
        std::string error;
        if (!harness.start(&error) ||
            !direct.connect("127.0.0.1", harness.backendPort(0),
                            &error) ||
            !routed.connect("127.0.0.1", harness.routerPort(), &error))
            throw std::runtime_error("traced cluster: " + error);
    }
};

std::string
mustCall(ServiceClient &client, const std::string &frame)
{
    std::string error;
    auto raw = client.callRaw(frame, &error);
    if (!raw)
        throw std::runtime_error("traced call: " + error);
    return *raw;
}

/** What one pass counts besides its spans. */
struct PassTotals
{
    std::uint64_t frameBytes = 0;
    std::map<std::string, double> expansions; ///< by search span name
};

/** One pass over the sample; returns its wall time in seconds. */
double
replay(const TracedInput &in, Recorder &rec, PassTotals &totals)
{
    Stack st;
    const PolicyRegistry &registry = PolicyRegistry::builtin();
    const auto t0 = Clock::now();
    std::uint64_t id = 0;
    for (const RequestSpec &spec : in.iar) {
        ++id;
        const std::size_t root = rec.open("bench.request", id, 0);
        const std::string frame = rec.timed(
            "generator.frame", id, root,
            [&] { return frameText(spec, id); });
        totals.frameBytes += frame.size();
        ServiceRequest req = rec.timed("protocol.parse", id, root, [&] {
            std::istringstream is(frame);
            auto r = tryReadRequest(is);
            if (!r)
                throw std::runtime_error("traced parse failed");
            return *std::move(r);
        });
        ResultCache::Probe probe = rec.timed(
            "result_cache.probe_miss", id, root,
            [&] { return st.cache.begin(req); });
        const std::size_t adm = rec.open("admission.submit", id, root);
        ServiceResponse resp = st.queue.submit(req).get();
        rec.close(adm);
        rec.derived("engine.serve_queued", id, adm, resp.stats.queueNs,
                    resp.stats.solveNs);
        rec.timed("protocol.serialize", id, root,
                  [&] { return responseText(resp); });
        if (probe.kind == ResultCache::Probe::Kind::Leader)
            st.cache.publish(probe, resp.ok, responseText(resp, false));
        rec.timed("result_cache.probe_hit", id, root,
                  [&] { return st.cache.begin(req).kind; });

        // Layers the request path hides inside the engine, each
        // called on its own cold engine.
        rec.timed("engine.serve", id, root,
                  [&] { return st.serveEngine.serve(req).ok; });
        const PolicyOutcome out = rec.timed("policy.iar", id, root, [&] {
            return registry.find("iar")->run(
                req.workload, req.options,
                st.policyEngine.evaluator());
        });
        rec.timed("sim.simulate", id, root, [&] {
            return simulate(req.workload, out.schedule).makespan;
        });
        rec.timed("exec.evaluate", id, root, [&] {
            return st.execEngine.evaluator()
                .evaluateOne(req.workload, out.schedule)
                .makespan;
        });

        // The same request through the router (first touch solves
        // and stores it on the backend), then as a hit directly on
        // the backend and through the router.
        rec.timed("cluster.route_miss", id, root,
                  [&] { return mustCall(st.routed, frame); });
        rec.timed("server.direct_hit", id, root,
                  [&] { return mustCall(st.direct, frame); });
        rec.timed("cluster.route_hit", id, root,
                  [&] { return mustCall(st.routed, frame); });
        rec.close(root);
    }
    for (const ExactInstance &inst : in.exact) {
        ++id;
        const std::size_t root = rec.open("bench.exact", id, 0);
        const Workload w = makeWorkload(exactSpec(inst, false));
        auto search = [&](const char *name, std::size_t threads) {
            AStarConfig cfg;
            cfg.threads = threads;
            const std::size_t h = rec.open(name, id, root);
            const AStarResult r = threads == 0 ? aStarOptimal(w, cfg)
                                               : aStarParallel(w, cfg);
            rec.close(h);
            totals.expansions[name] += static_cast<double>(r.nodesExpanded);
        };
        search("astar.seq", 0);
        search("astar.par1", 1);
        search("astar.parN", in.nproc);
        rec.close(root);
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

std::map<std::string, double>
runTraced(const TracedInput &in, const std::string &trace_out)
{
    // Alternate untraced and traced passes so warm-up favours
    // neither; the last traced pass supplies the spans.
    double plain_s = 0.0, traced_s = 0.0;
    PassTotals totals;
    std::unique_ptr<Recorder> last;
    for (int round = 0; round < 2; ++round) {
        Recorder off(false);
        PassTotals untraced;
        plain_s += replay(in, off, untraced);
        last = std::make_unique<Recorder>(true);
        totals = PassTotals{};
        traced_s += replay(in, *last, totals);
    }
    const std::vector<Span> &spans = last->spans();

    std::map<std::string, std::vector<double>> dur_us;
    std::map<std::string, double> self_ms;
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent != 0)
            child_ns[s.parent - 1] += s.dur;
    std::map<std::string, double> total_s; ///< summed duration by name
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        dur_us[s.name].push_back(static_cast<double>(s.dur) / 1e3);
        self_ms[layerOf(s.name)] +=
            static_cast<double>(s.dur - child_ns[i]) / 1e6;
        total_s[s.name] += static_cast<double>(s.dur) / 1e9;
    }

    std::map<std::string, double> m;
    const double parse_s = total_s["protocol.parse"];
    m["protocol.parse_us"] = percentile(dur_us["protocol.parse"], 50.0);
    m["protocol.parse_mbps"] =
        parse_s > 0 ? static_cast<double>(totals.frameBytes) / 1e6 / parse_s
                    : 0.0;
    m["protocol.serialize_us"] =
        percentile(dur_us["protocol.serialize"], 50.0);
    m["result_cache.probe_hit_us"] =
        percentile(dur_us["result_cache.probe_hit"], 50.0);
    m["result_cache.probe_miss_us"] =
        percentile(dur_us["result_cache.probe_miss"], 50.0);
    std::vector<double> probes = dur_us["result_cache.probe_hit"];
    probes.insert(probes.end(), dur_us["result_cache.probe_miss"].begin(),
                  dur_us["result_cache.probe_miss"].end());
    m["result_cache.probe_us"] = percentile(probes, 50.0);
    m["engine.serve_us"] = percentile(dur_us["engine.serve"], 50.0);
    m["policy.iar_us"] = percentile(dur_us["policy.iar"], 50.0);
    m["sim.simulate_us"] = percentile(dur_us["sim.simulate"], 50.0);
    m["exec.evaluate_us"] = percentile(dur_us["exec.evaluate"], 50.0);
    m["router.overhead_p50_ms"] =
        (percentile(dur_us["cluster.route_hit"], 50.0) -
         percentile(dur_us["server.direct_hit"], 50.0)) /
        1e3;
    for (const char *s : {"astar.seq", "astar.par1"})
        m[std::string(s) + ".expansions_per_s"] =
            total_s[s] > 0 ? totals.expansions[s] / total_s[s] : 0.0;
    m["astar.parN.speedup"] =
        total_s["astar.parN"] > 0
            ? total_s["astar.par1"] / total_s["astar.parN"]
            : 0.0;
    for (const auto &[layer, ms] : self_ms)
        m["trace.self_ms." + layer] = ms;
    m["trace.overhead_pct"] =
        plain_s > 0 ? 100.0 * (traced_s - plain_s) / plain_s : 0.0;
    m["trace.spans"] = static_cast<double>(spans.size());

    obs::TraceEventSink sink;
    sink.processName(1, "perfbench traced pass");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::size_t parent = s.parent;
        sink.slice(s.name, layerOf(s.name), 1,
                   static_cast<std::uint32_t>(s.request), s.ts, s.dur,
                   {{"request", std::to_string(s.request)},
                    {"span", std::to_string(i + 1)},
                    {"parent", std::to_string(parent)}});
    }
    sink.writeFile(trace_out);
    return m;
}

} // namespace perfbench
