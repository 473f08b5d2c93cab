/**
 * @file
 * perfbench-loadgen: drives running jitschedd / jitsched-router
 * processes through one workload, checks every answer, and prints
 * one JSON object of metrics.  run.py starts the processes, builds
 * this program, and turns its output into the benchmark's result.
 *
 *   perfbench-loadgen --workload W --seed N --seconds S --trace 0|1
 *                     --daemon HOST:PORT [--daemon ...]
 *                     [--router HOST:PORT] [--trace-out FILE]
 *                     [--smoke]
 *
 * Every base frame is rendered from the seed before timing starts;
 * the daemons receive only frames.  A request is a base frame sent
 * under a workload name of its own ("iar-<variant>"): the name is
 * part of every cache key and of the cluster fingerprint, so each
 * variant is a distinct request that costs exactly what its base
 * costs, and a long run needs no more memory than a short one.
 *
 * A run is a sequence of phases, each accounted on its own:
 *
 *   warmup      cached-repeat only, untimed: fills the result caches
 *   open        the short (iar) class sent open loop at the
 *               workload's fixed rate; latency is timed from each
 *               request's due time, so generator lateness counts
 *   saturation  every connection closed loop: throughput
 *   probe       iar-stream and cached-repeat: the exact-solve pool,
 *               sequential on an otherwise idle front end, so that
 *               solve_p50_ms, which every workload reports, has a
 *               value where no exact caller runs
 *
 * With --trace 1 the in-process traced pass (traced.hh) follows.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/ring.hh"
#include "core/lower_bound.hh"
#include "qa/oracles.hh"
#include "requests.hh"
#include "service/client.hh"
#include "service/engine.hh"
#include "service/result_cache.hh"
#include "sim/makespan.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "traced.hh"

using namespace jitsched;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

struct Endpoint
{
    std::string host;
    std::uint16_t port = 0;
};

/**
 * What distinguishes the three workloads.  Rates, limits and counts
 * are fixed here, not derived from the host, so two commits are
 * driven identically.  The open-loop rates sit at a fifth to a
 * third of the parent commit's saturation throughput on a 4-core
 * host; at half of it the p99 swung 2-16 ms from run to run.
 */
struct Plan
{
    const char *name;
    double rate;           ///< short-class offered rate, requests/s
    double sloMs;          ///< short-class latency limit
    std::size_t openConns; ///< connections carrying the short class
    bool exactCaller;      ///< one closed-loop exact caller alongside
    double thinkMs;        ///< the exact caller's pause between calls
    bool cached;           ///< Zipf repeats over a variant universe
    double satPerSecond;   ///< saturation requests per --seconds
};

const Plan kPlans[] = {
    {"iar-stream", 600.0, 25.0, 4, false, 0.0, false, 1000.0},
    {"cached-repeat", 600.0, 25.0, 4, false, 0.0, true, 720.0},
    {"mixed-astar", 360.0, 25.0, 3, true, 40.0, false, 600.0},
};

/*
 * The measured phases run as rounds of (open, saturation, probe), as
 * many as keep kRoundSamples short-class requests in each.  The
 * 4-core host this was tuned on runs a fixed piece of work up to
 * 1.8x slower from one second to the next as other tenants come and
 * go, and stalls of several milliseconds come in bursts that can
 * last tens of seconds.  The short class's latency follows them:
 * pooled over a run, or as the median round, the p99 spread 0.14-1.2
 * (quartile distance over median) across seeds and the p50 up to
 * 0.28, against 0.09-0.22 and 0.06-0.12 for the lowest round.  So
 * p50 and p99 are each their lowest round's.  Taking both from the
 * round with the lowest p99 spread mixed-astar's p50 0.23: there the
 * p99 is set by the long solves, not by the host.  The SLO share and
 * throughput pool every round, so a regression confined to part of
 * a run still moves them.
 */

/** Short-class requests per round: ten beyond the p99, and a margin. */
constexpr std::size_t kRoundSamples = 1050;

/**
 * Sends of each exact-pool request over a probe's rounds.  Each send
 * is a variant of its own, so no send is a result-cache hit.
 */
constexpr std::size_t kProbeRepeats = 2;

/** Distinct base frames of the short class (not cached-repeat). */
constexpr std::size_t kBases = 1500;

/** Share of --seconds spent in the open phases. */
constexpr double kOpenShare = 0.7;

/** Exact-solve pool: size and the A* expansion band (requests.hh). */
constexpr std::size_t kExactPool = 32;
constexpr std::uint64_t kExactMinExpansions = 3000;
constexpr std::uint64_t kExactMaxExpansions = 6000;

/**
 * cached-repeat: Zipf skew of the repeats and the share of
 * never-repeated requests.  The skew is YCSB's default Zipfian
 * constant (Cooper et al., SoCC 2010); the 80% repeats / 20% fresh
 * mix is the steady state bench/bench_service.cc expects.
 */
constexpr double kZipfSkew = 0.99;
constexpr double kFreshShare = 0.2;

/** Per-backend result-cache budget run.py passes (--result-cache-mb). */
constexpr std::size_t kCacheMbPerBackend = 1;

enum Phase : std::uint8_t
{
    Warmup,
    Open,
    Saturation,
    Probe,
    kPhases
};
const char *const kPhaseNames[kPhases] = {"warmup", "open",
                                          "saturation", "probe"};

/**
 * What one request sends: a base frame under a variant name.
 * Variant 0 keeps the base name, so equal slots are identical
 * requests; any other variant is unique within the run.
 */
struct Slot
{
    std::uint32_t spec = 0;
    std::uint64_t variant = 0;
};

/** Variants of a timed loop that ran past its planned slots. */
constexpr std::uint64_t kWrapVariants = std::uint64_t(1) << 40;

std::uint64_t
phaseVariant(Phase phase, std::uint64_t i)
{
    return (std::uint64_t(phase) + 1) * (std::uint64_t(1) << 32) + i + 1;
}

/** One sent request. */
struct Sample
{
    Slot slot;
    Phase phase = Open;
    std::uint8_t round = 0;
    std::uint64_t id = 0;   ///< wire id, unique per run
    std::int64_t dueNs = 0; ///< relative to the run epoch
    std::int64_t sentNs = 0;
    std::int64_t doneNs = 0;
    bool transport = false;
    std::string response;
};

/** Outcome of one sample after the output check. */
enum class Outcome : std::uint8_t
{
    Ok,
    Failed,    ///< error response that is not a refusal
    Refused,   ///< shed, expired or unavailable
    Transport, ///< no response frame
};

struct Run
{
    const Plan *plan = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool smoke = false;
    std::vector<Endpoint> daemons;
    std::optional<Endpoint> router;
    unsigned nproc = 1;

    /** Base specs, and their frames split around the workload name. */
    std::vector<RequestSpec> specs;
    std::vector<std::string> before, name, after;
    std::vector<ExactInstance> pool;
    std::vector<Slot> exactSlots; ///< astar, astar-par per instance

    Clock::time_point epoch;
    std::vector<Sample> samples;
    std::mutex samplesMutex;

    std::vector<std::string> errors;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "perfbench-loadgen: " << msg << std::endl;
    std::exit(2);
}

Endpoint
parseEndpoint(const std::string &spec)
{
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos)
        die("endpoint needs HOST:PORT, got '" + spec + "'");
    Endpoint ep;
    ep.host = spec.substr(0, colon);
    ep.port = static_cast<std::uint16_t>(
        std::stoul(spec.substr(colon + 1)));
    return ep;
}

std::int64_t
sinceEpoch(const Run &run, Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t - run.epoch)
        .count();
}

/** Register a spec; its frame is rendered later by renderFrames(). */
std::uint32_t
addSpec(Run &run, const RequestSpec &spec)
{
    run.specs.push_back(spec);
    run.before.emplace_back();
    run.name.emplace_back();
    run.after.emplace_back();
    return static_cast<std::uint32_t>(run.specs.size() - 1);
}

void
renderFrame(Run &run, std::uint32_t i)
{
    const std::string frame = frameText(run.specs[i], 0);
    const std::size_t body = frame.find('\n') + 1;
    const std::size_t at = frame.find("\nworkload ") + 10;
    const std::size_t eol = frame.find('\n', at);
    run.before[i] = frame.substr(body, at - body);
    run.name[i] = frame.substr(at, eol - at);
    run.after[i] = frame.substr(eol);
}

/** Render every frame not rendered yet, on nproc threads. */
void
renderFrames(Run &run)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < run.nproc; ++t)
        threads.emplace_back([&] {
            for (std::size_t i;
                 (i = next.fetch_add(1)) < run.specs.size();)
                if (run.before[i].empty())
                    renderFrame(run, static_cast<std::uint32_t>(i));
        });
    for (std::thread &t : threads)
        t.join();
}

std::string
workloadName(const Run &run, const Slot &slot)
{
    return slot.variant == 0
               ? run.name[slot.spec]
               : run.name[slot.spec] + "-" + std::to_string(slot.variant);
}

std::string
frameFor(const Run &run, const Slot &slot, std::uint64_t id)
{
    return "jitsched-request " + std::to_string(id) + "\n" +
           run.before[slot.spec] + workloadName(run, slot) +
           run.after[slot.spec];
}

/** The request a slot sends, as the daemon parses it. */
ServiceRequest
slotRequest(const Run &run, const Slot &slot)
{
    ServiceRequest req = makeRequest(run.specs[slot.spec], 0);
    req.workload = Workload(workloadName(run, slot),
                            req.workload.functions(),
                            req.workload.calls());
    return req;
}

/** A client with transport deadlines that reconnects after errors. */
struct Conn
{
    ServiceClient client{ClientConfig{2000, 30000, 30000}};
    const Endpoint *ep;

    explicit Conn(const Endpoint &e) : ep(&e) { reconnect(); }

    void
    reconnect()
    {
        client.disconnect();
        client.connect(ep->host, ep->port);
    }

    void
    send(Run &run, Sample &s)
    {
        static std::atomic<std::uint64_t> next_id{1};
        s.id = next_id.fetch_add(1);
        const std::string frame = frameFor(run, s.slot, s.id);
        s.sentNs = sinceEpoch(run, Clock::now());
        std::optional<std::string> raw;
        if (client.connected())
            raw = client.callRaw(frame);
        s.doneNs = sinceEpoch(run, Clock::now());
        if (raw) {
            s.response = std::move(*raw);
        } else {
            s.transport = true;
            reconnect();
        }
    }
};

void
publish(Run &run, std::vector<Sample> &local)
{
    std::lock_guard<std::mutex> lk(run.samplesMutex);
    for (Sample &s : local)
        run.samples.push_back(std::move(s));
}

/**
 * Closed loop: each of @p conns connections sends the next of
 * @p count requests, cycling through @p order; a cycled unique
 * variant gets a fresh one, so repeats stay distinct.
 */
void
closedLoop(Run &run, Phase phase, std::uint8_t round,
           const Endpoint &ep, const std::vector<Slot> &order,
           std::size_t first, std::size_t count, std::size_t conns)
{
    std::atomic<std::size_t> next{first};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c) {
        threads.emplace_back([&] {
            Conn conn(ep);
            std::vector<Sample> local;
            for (std::size_t i;
                 (i = next.fetch_add(1)) < first + count;) {
                Sample s;
                s.slot = order[i % order.size()];
                if (i >= order.size() && s.slot.variant != 0)
                    s.slot.variant = kWrapVariants + i;
                s.phase = phase;
                s.round = round;
                s.dueNs = sinceEpoch(run, Clock::now());
                conn.send(run, s);
                local.push_back(std::move(s));
            }
            publish(run, local);
        });
    }
    for (std::thread &t : threads)
        t.join();
}

/**
 * The exact-solve caller: closed loop over the pool, alternating
 * astar and astar-par, pausing @p think_ms between calls, until
 * @p stop is set.
 */
void
exactCaller(Run &run, Phase phase, std::uint8_t round,
            const Endpoint &ep, const std::atomic<bool> &stop,
            double think_ms, std::size_t *cursor)
{
    Conn conn(ep);
    std::vector<Sample> local;
    while (!stop.load()) {
        Sample s;
        s.slot = run.exactSlots[(*cursor)++ % run.exactSlots.size()];
        s.phase = phase;
        s.round = round;
        s.dueNs = sinceEpoch(run, Clock::now());
        conn.send(run, s);
        local.push_back(std::move(s));
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(think_ms));
    }
    publish(run, local);
}

/**
 * Open loop: request i is due at start + i / rate whatever the
 * system does; a request whose connections are all busy is sent
 * late, and its latency still counts from the due time.
 */
void
openLoop(Run &run, std::uint8_t round, const Endpoint &ep,
         const std::vector<Slot> &order, std::size_t first,
         std::size_t count, std::size_t conns, double rate,
         Clock::time_point start)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    const std::int64_t start_ns = sinceEpoch(run, start);
    for (std::size_t c = 0; c < conns; ++c) {
        threads.emplace_back([&] {
            Conn conn(ep);
            std::vector<Sample> local;
            for (std::size_t i; (i = next.fetch_add(1)) < count;) {
                Sample s;
                s.slot = order[first + i];
                s.phase = Open;
                s.round = round;
                s.dueNs = start_ns + static_cast<std::int64_t>(
                                         1e9 * static_cast<double>(i) /
                                         rate);
                std::this_thread::sleep_until(
                    run.epoch + std::chrono::nanoseconds(s.dueNs));
                conn.send(run, s);
                local.push_back(std::move(s));
            }
            publish(run, local);
        });
    }
    for (std::thread &t : threads)
        t.join();
}

using Counters = std::map<std::string, double>;

/** Counter and gauge values from a STATS scrape of @p ep. */
Counters
scrape(const Endpoint &ep)
{
    ServiceClient client(ClientConfig{2000, 10000, 10000});
    std::string error;
    if (!client.connect(ep.host, ep.port, &error))
        die("STATS connect: " + error);
    auto resp = client.stats(0, &error);
    if (!resp || !resp->ok)
        die("STATS scrape failed: " + error);
    Counters out;
    for (const std::string &line : resp->lines) {
        std::istringstream ls(line);
        std::string type, name;
        double value = 0.0;
        if (ls >> type >> name >> value &&
            (type == "counter" || type == "gauge"))
            out[name] = value;
    }
    return out;
}

/** The response body a cache would store: no id line, no stats line. */
std::string
stripVolatile(const std::string &frame)
{
    std::string out;
    std::size_t pos = frame.find('\n');
    pos = pos == std::string::npos ? frame.size() : pos + 1;
    while (pos < frame.size()) {
        std::size_t eol = frame.find('\n', pos);
        if (eol == std::string::npos)
            eol = frame.size();
        if (frame.compare(pos, 6, "stats ") != 0)
            out.append(frame, pos, eol - pos + 1);
        pos = eol + 1;
    }
    return out;
}

/** Per-sample results of the output check. */
struct Checked
{
    Outcome outcome = Outcome::Transport;
    ServiceStats stats;
    double logRatio = 0.0; ///< log(make-span / lower bound), ok only
};

/**
 * Full check of one ok response against its request's workload.
 * @return a description of the first mismatch; empty when correct
 */
std::string
checkSchedule(const RequestSpec &spec, const ServiceResponse &resp,
              ServiceEngine &engine)
{
    if (!resp.hasSim || !resp.hasSchedule)
        return "ok response without a schedule";
    const Workload w = makeWorkload(spec);
    const Schedule sched(resp.schedule);
    const Tick ref = qa::referenceMakespan(w, sched);
    const Tick got = resp.sim.makespan;
    if (spec.kind == Kind::Iar) {
        if (ref != got)
            return "make-span " + std::to_string(got) +
                   " != reference replay " + std::to_string(ref);
        if (got < resp.lowerBound)
            return "make-span below its lower bound";
        return {};
    }
    // Exact requests run on 2 compile cores, but the reference walk
    // has one: more cores never slow a static schedule, so it bounds
    // from above.  The reported lower bound is the candidate-level
    // one, which A* may beat by using other levels; the all-levels
    // bound holds for every schedule.
    SimOptions two;
    two.compileCores = 2;
    const Tick sim2 = simulate(w, sched, two).makespan;
    if (sim2 != got || got > ref)
        return "exact make-span " + std::to_string(got) +
               " disagrees with its replay (" + std::to_string(sim2) +
               " on 2 cores, " + std::to_string(ref) + " on one)";
    if (got < lowerBoundAllLevels(w))
        return "exact make-span below the lower bound";
    ServiceRequest iar = makeRequest(spec, 0);
    iar.policy = "iar";
    iar.options.astarThreads = 0;
    const Tick iar_span = engine.serve(iar).sim.makespan;
    if (got > iar_span)
        return "exact make-span " + std::to_string(got) +
               " above iar's " + std::to_string(iar_span);
    return {};
}

/**
 * The output check.  Every ok schedule replays to its make-span
 * under qa::referenceMakespan and is no better than the lower bound;
 * every cache-served body equals a fresh in-process solve (for
 * astar-par, which promises the optimal cost but not one schedule,
 * its make-span does); every exact make-span is at most the iar
 * make-span of its instance.
 * Answers for one base differ only in their id and stats lines, so
 * each distinct body of a base is checked in full once and repeats
 * are matched byte for byte against it.
 */
std::vector<Checked>
checkOutputs(Run &run)
{
    std::vector<Checked> out(run.samples.size());
    ServiceEngine engine;
    std::mutex mu;
    std::map<std::uint32_t, std::vector<std::string>> verified;
    std::map<std::uint32_t, ServiceResponse> fresh;
    std::vector<std::string> errors;

    auto fail = [&](const std::string &msg) {
        std::lock_guard<std::mutex> lk(mu);
        if (errors.size() < 20)
            errors.push_back(msg);
        else if (errors.size() == 20)
            errors.push_back("(further mismatches not shown)");
    };
    auto known = [&](std::uint32_t spec, const std::string &body) {
        std::lock_guard<std::mutex> lk(mu);
        const auto &v = verified[spec];
        return std::find(v.begin(), v.end(), body) != v.end();
    };

    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < run.nproc; ++t) {
        threads.emplace_back([&] {
            for (std::size_t i;
                 (i = next.fetch_add(1)) < run.samples.size();) {
                const Sample &s = run.samples[i];
                Checked &c = out[i];
                if (s.transport)
                    continue;
                std::istringstream is(s.response);
                std::string perr;
                auto resp = tryReadResponse(is, &perr);
                if (!resp) {
                    c.outcome = Outcome::Failed;
                    fail("unparseable response: " + perr);
                    continue;
                }
                c.stats = resp->stats;
                if (resp->id != s.id) {
                    c.outcome = Outcome::Failed;
                    fail("response " + std::to_string(resp->id) +
                         " answered request " + std::to_string(s.id));
                    continue;
                }
                if (!resp->ok) {
                    const bool refused =
                        resp->code == errcode::resourceExhausted ||
                        resp->code == errcode::deadlineExceeded ||
                        resp->code == errcode::unavailable;
                    c.outcome =
                        refused ? Outcome::Refused : Outcome::Failed;
                    continue;
                }
                c.outcome = Outcome::Ok;
                c.logRatio =
                    std::log(static_cast<double>(resp->sim.makespan) /
                             static_cast<double>(resp->lowerBound));
                const std::uint32_t spec = s.slot.spec;
                const std::string body = stripVolatile(s.response);
                if (!known(spec, body)) {
                    const std::string err =
                        checkSchedule(run.specs[spec], *resp, engine);
                    if (!err.empty()) {
                        fail(err);
                        continue;
                    }
                    std::lock_guard<std::mutex> lk(mu);
                    verified[spec].push_back(body);
                }
                if (resp->stats.resultCache == 0)
                    continue;
                std::optional<ServiceResponse> expect;
                {
                    std::lock_guard<std::mutex> lk(mu);
                    auto it = fresh.find(spec);
                    if (it != fresh.end())
                        expect = it->second;
                }
                if (!expect) {
                    expect = engine.serve(slotRequest(run, s.slot));
                    std::lock_guard<std::mutex> lk(mu);
                    fresh.emplace(spec, *expect);
                }
                const bool same =
                    run.specs[spec].parallel
                        ? resp->sim.makespan == expect->sim.makespan
                        : body == stripVolatile(responseText(*expect));
                if (!same)
                    fail("cached body differs from a fresh solve");
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (std::string &e : errors)
        run.errors.push_back(std::move(e));
    return out;
}

/** The slots of each phase, all rendered before timing. */
struct Orders
{
    std::vector<Slot> warmup, open, saturation, probe;
};

Orders
prepare(Run &run)
{
    const Plan &plan = *run.plan;
    const std::size_t n_open = static_cast<std::size_t>(
        std::ceil(plan.rate * kOpenShare * run.seconds));
    Orders o;

    run.pool = exactPool(run.seed, kExactPool, kExactMinExpansions,
                         kExactMaxExpansions, run.nproc);
    for (const ExactInstance &inst : run.pool) {
        run.exactSlots.push_back({addSpec(run, exactSpec(inst, false)), 0});
        run.exactSlots.push_back({addSpec(run, exactSpec(inst, true)), 0});
    }
    if (!plan.exactCaller)
        for (std::size_t k = 0; k < kProbeRepeats; ++k)
            for (const Slot &slot : run.exactSlots)
                o.probe.push_back(
                    {slot.spec, phaseVariant(Probe, o.probe.size())});

    std::uint64_t iar_index = 0;
    auto base = [&] { return addSpec(run, iarSpec(run.seed, iar_index++)); };

    if (!plan.cached) {
        std::vector<std::uint32_t> bases;
        for (std::size_t i = 0; i < kBases; ++i)
            bases.push_back(base());
        for (std::size_t i = 0; i < n_open; ++i)
            o.open.push_back({bases[i % kBases], phaseVariant(Open, i)});
        for (std::size_t i = 0; i < kBases; ++i)
            o.saturation.push_back(
                {bases[i], phaseVariant(Saturation, i)});
        renderFrames(run);
        return o;
    }

    // cached-repeat: a variant universe whose cache footprint (key
    // plus body) is about twice the total cache budget, so hits run
    // beside insertions and evictions.  Fresh requests are universe
    // frames under a unique name: certain misses of the same cost.
    const double budget = static_cast<double>(
        run.daemons.size() * (kCacheMbPerBackend << 20));
    double footprint = 0.0;
    ServiceEngine engine;
    std::vector<std::uint32_t> universe;
    while (footprint < 2.0 * budget) {
        const std::uint32_t id = base();
        renderFrame(run, id);
        universe.push_back(id);
        const ServiceRequest req = makeRequest(run.specs[id], 0);
        footprint += static_cast<double>(
            ResultCache::keyMaterial(req).size() +
            responseText(engine.serve(req), false).size());
    }
    renderFrames(run);

    // Popularity rank -> variant.  Under Zipf a handful of ranks
    // carry most of the traffic, so a random assignment would let the
    // sizes of a few hot variants set a seed's whole cost.  Ranks
    // instead walk the universe sorted by frame size in bit-reversed
    // order, so every run of hot ranks spans the size range evenly.
    std::vector<std::uint32_t> by_size = universe;
    std::sort(by_size.begin(), by_size.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return run.after[a].size() < run.after[b].size();
              });
    std::size_t bits = 0;
    while ((std::size_t(1) << bits) < by_size.size())
        ++bits;
    universe.clear();
    for (std::size_t i = 0; i < (std::size_t(1) << bits); ++i) {
        std::size_t rev = 0;
        for (std::size_t b = 0; b < bits; ++b)
            rev |= ((i >> b) & 1) << (bits - 1 - b);
        if (rev < by_size.size())
            universe.push_back(by_size[rev]);
    }
    ZipfSampler zipf(universe.size(), kZipfSkew);
    Rng rng = Rng::caseStream(run.seed, 0x7a697066ull);
    auto draw = [&](Phase phase, std::size_t n, std::vector<Slot> &into) {
        for (std::size_t i = 0; i < n; ++i) {
            const bool is_fresh = rng.nextBool(kFreshShare);
            into.push_back({universe[zipf.sample(rng)],
                            is_fresh ? phaseVariant(phase, i) : 0});
        }
    };
    draw(Warmup, 2 * universe.size(), o.warmup);
    draw(Open, n_open, o.open);
    draw(Saturation, 4 * universe.size(), o.saturation);
    return o;
}

struct PhaseCount
{
    std::uint64_t sent = 0, ok = 0, failed = 0, refused = 0,
                  transport = 0;
};

void
emitNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

void
emitString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            os << '\\' << ch;
        else if (static_cast<unsigned char>(ch) < 0x20)
            os << ' ';
        else
            os << ch;
    }
    os << '"';
}

void
emitObject(std::ostream &os, const std::map<std::string, double> &m)
{
    os << "{";
    const char *sep = "";
    for (const auto &[k, v] : m) {
        os << sep;
        emitString(os, k);
        os << ": ";
        emitNumber(os, v);
        sep = ", ";
    }
    os << "}";
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    Run run;
    std::string workload, trace_out;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            workload = value();
        else if (arg == "--seed")
            run.seed = std::stoull(value());
        else if (arg == "--seconds")
            run.seconds = std::stod(value());
        else if (arg == "--trace")
            trace = value() == "1";
        else if (arg == "--daemon")
            run.daemons.push_back(parseEndpoint(value()));
        else if (arg == "--router")
            run.router = parseEndpoint(value());
        else if (arg == "--trace-out")
            trace_out = value();
        else if (arg == "--smoke")
            run.smoke = true;
        else
            die("unknown argument '" + arg + "'");
    }
    for (const Plan &p : kPlans)
        if (workload == p.name)
            run.plan = &p;
    if (run.plan == nullptr)
        die("unknown workload '" + workload + "'");
    if (run.daemons.empty() || run.seconds <= 0.0)
        die("need --daemon and --seconds > 0");
    if (trace && trace_out.empty())
        die("--trace 1 needs --trace-out");
    run.nproc = std::max(1u, std::thread::hardware_concurrency());
    const Plan &plan = *run.plan;
    const Endpoint &front = run.router ? *run.router : run.daemons[0];

    const auto prep0 = Clock::now();
    const Orders orders = prepare(run);
    const double prep_s =
        std::chrono::duration<double>(Clock::now() - prep0).count();
    run.epoch = Clock::now();

    // Warm-up goes straight to each key's owning backend: once the
    // router has relayed, its idle pooled connections hold every
    // backend handler, so only a router-free warm-up leaves the
    // backends reachable for the STATS scrape below.
    if (!orders.warmup.empty()) {
        const cluster::HashRing ring(run.daemons.size());
        std::vector<std::vector<Slot>> by_owner(run.daemons.size());
        for (const Slot &slot : orders.warmup)
            by_owner[ring.ownerOf(
                         requestFingerprint(slotRequest(run, slot)))]
                .push_back(slot);
        for (std::size_t i = 0; i < run.daemons.size(); ++i)
            if (!by_owner[i].empty())
                closedLoop(run, Warmup, 0, run.daemons[i], by_owner[i],
                           0, by_owner[i].size(), run.nproc);
    }

    // Daemon counters before the measured phases; run.py scrapes them
    // again once the router is gone and takes the deltas.
    std::vector<Counters> stats_before;
    for (const Endpoint &ep : run.daemons)
        stats_before.push_back(scrape(ep));
    std::optional<Counters> router_before;
    if (run.router)
        router_before = scrape(*run.router);

    // The measured rounds.  The exact caller, when the workload has
    // one, runs beside both phases of every round.
    std::size_t exact_cursor = 0;
    const std::size_t n_open = orders.open.size();
    const std::size_t rounds = std::max<std::size_t>(1, n_open / kRoundSamples);
    const std::size_t n_sat = static_cast<std::size_t>(
        std::ceil(plan.satPerSecond * run.seconds));
    std::vector<double> sat_s(rounds, 0.0), open_s(rounds, 0.0);
    for (std::size_t r = 0; r < rounds; ++r) {
        const auto round = static_cast<std::uint8_t>(r);
        auto with_caller = [&](Phase phase, auto &&body) {
            std::atomic<bool> stop{false};
            std::thread caller;
            if (plan.exactCaller)
                caller = std::thread([&] {
                    exactCaller(run, phase, round, front, stop,
                                plan.thinkMs, &exact_cursor);
                });
            body();
            stop = true;
            if (caller.joinable())
                caller.join();
        };
        const std::size_t o0 = n_open * r / rounds;
        const std::size_t o1 = n_open * (r + 1) / rounds;
        with_caller(Open, [&] {
            const auto t0 = Clock::now();
            openLoop(run, round, front, orders.open, o0, o1 - o0,
                     plan.openConns, plan.rate, t0);
            open_s[r] =
                std::chrono::duration<double>(Clock::now() - t0).count();
        });
        const std::size_t s0 = n_sat * r / rounds;
        const std::size_t s1 = n_sat * (r + 1) / rounds;
        with_caller(Saturation, [&] {
            const auto t0 = Clock::now();
            closedLoop(run, Saturation, round, front, orders.saturation,
                       s0, s1 - s0, plan.openConns);
            sat_s[r] =
                std::chrono::duration<double>(Clock::now() - t0).count();
        });
        const std::size_t n_probe = orders.probe.size();
        const std::size_t p0 = n_probe * r / rounds;
        const std::size_t p1 = n_probe * (r + 1) / rounds;
        if (p1 > p0)
            closedLoop(run, Probe, round, front, orders.probe, p0,
                       p1 - p0, 1);
    }

    std::optional<Counters> router_after;
    if (run.router)
        router_after = scrape(*run.router);

    // ---- the output check and per-phase accounting ----
    const std::vector<Checked> checked = checkOutputs(run);
    PhaseCount count[kPhases];
    std::size_t short_sent[kPhases] = {};
    for (std::size_t i = 0; i < run.samples.size(); ++i) {
        const Sample &s = run.samples[i];
        PhaseCount &pc = count[s.phase];
        ++pc.sent;
        if (run.specs[s.slot.spec].kind == Kind::Iar)
            ++short_sent[s.phase];
        switch (checked[i].outcome) {
        case Outcome::Ok: ++pc.ok; break;
        case Outcome::Failed: ++pc.failed; break;
        case Outcome::Refused: ++pc.refused; break;
        case Outcome::Transport: ++pc.transport; break;
        }
    }
    std::uint64_t attempted = 0, not_ok = 0;
    for (const PhaseCount &pc : count) {
        if (pc.sent != pc.ok + pc.failed + pc.refused + pc.transport)
            die("request accounting does not add up");
        attempted += pc.sent;
        not_ok += pc.failed + pc.refused + pc.transport;
    }
    if (count[Warmup].sent != orders.warmup.size() ||
        short_sent[Open] != n_open || short_sent[Saturation] != n_sat ||
        count[Probe].sent != orders.probe.size())
        die("a phase sent a different request count than planned");

    // ---- metrics ----
    std::map<std::string, double> m;
    std::vector<std::vector<double>> lat(rounds);
    std::vector<double> unattributed, late;
    std::vector<double> wait_short, wait_exact;
    std::map<std::string, std::vector<double>> solve_by_policy;
    std::map<std::uint32_t, double> exact_best; ///< fastest send per spec
    std::vector<std::size_t> open_short(rounds), slo_met(rounds);
    std::vector<double> sat_ok(rounds);
    double log_ratio = 0.0, ratio_n = 0.0;
    double ec_hits = 0.0, ec_misses = 0.0;
    // Client round trip per class, split into queueNs, solveNs and
    // the unattributed rest (sums; divided by the count on output).
    double attr[2][4] = {};
    for (std::size_t i = 0; i < run.samples.size(); ++i) {
        const Sample &s = run.samples[i];
        const Checked &c = checked[i];
        const RequestSpec &spec = run.specs[s.slot.spec];
        const bool exact = spec.kind == Kind::Exact;
        const char *policy = !exact         ? "iar"
                             : spec.parallel ? "astar-par"
                                             : "astar";
        if (s.phase == Warmup)
            continue;
        if (s.phase == Open && !exact) {
            ++open_short[s.round];
            late.push_back(ms(s.sentNs - s.dueNs));
            if (c.outcome == Outcome::Ok) {
                const double l = ms(s.doneNs - s.dueNs);
                lat[s.round].push_back(l);
                if (l <= plan.sloMs)
                    ++slo_met[s.round];
            }
        }
        if (c.outcome != Outcome::Ok)
            continue;
        log_ratio += c.logRatio;
        ratio_n += 1.0;
        if (s.phase == Saturation && !exact)
            sat_ok[s.round] += 1.0;
        if (exact && c.stats.resultCache == 0) {
            const double l = ms(s.doneNs - s.sentNs);
            auto [it, fresh] = exact_best.emplace(s.slot.spec, l);
            if (!fresh)
                it->second = std::min(it->second, l);
        }
        const double rtt = ms(s.doneNs - s.sentNs);
        const double q = ms(c.stats.queueNs), sv = ms(c.stats.solveNs);
        if (s.phase != Saturation) {
            double *a = attr[exact ? 1 : 0];
            a[0] += rtt;
            a[1] += q;
            a[2] += sv;
            a[3] += 1.0;
            if (!exact)
                unattributed.push_back(rtt - q - sv);
        }
        ec_hits += static_cast<double>(c.stats.cacheHits);
        ec_misses += static_cast<double>(c.stats.cacheMisses);
        if (c.stats.resultCache == 0) {
            (exact ? wait_exact : wait_short).push_back(q);
            solve_by_policy[policy].push_back(sv);
        }
    }
    // The SLO share and throughput pool every round; the latency
    // percentiles are each their lowest round's (see the note on
    // rounds above), and the pooled ones are printed as information.
    std::vector<double> p50, p99, slo, rps, all_lat;
    std::size_t short_total = 0, met_total = 0, fewest_samples = SIZE_MAX;
    double sat_ok_total = 0.0, sat_s_total = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
        p50.push_back(percentile(lat[r], 50.0));
        p99.push_back(percentile(lat[r], 99.0));
        slo.push_back(open_short[r] ? static_cast<double>(slo_met[r]) /
                                          open_short[r]
                                    : 0.0);
        rps.push_back(sat_s[r] > 0 ? sat_ok[r] / sat_s[r] : 0.0);
        all_lat.insert(all_lat.end(), lat[r].begin(), lat[r].end());
        short_total += open_short[r];
        met_total += slo_met[r];
        sat_ok_total += sat_ok[r];
        sat_s_total += sat_s[r];
        fewest_samples = std::min(fewest_samples, lat[r].size());
    }
    m["latency_p50_ms"] = *std::min_element(p50.begin(), p50.end());
    m["latency_p99_ms"] = *std::min_element(p99.begin(), p99.end());
    m["slo_met_share"] = short_total ? static_cast<double>(met_total) /
                                           static_cast<double>(short_total)
                                     : 0.0;
    m["throughput_rps"] =
        sat_s_total > 0 ? sat_ok_total / sat_s_total : 0.0;
    // Every exact request is sent several times over the run; its
    // latency is its fastest send that was a solve (a cache-served
    // send is not).  The class mixes two policies about 3x apart, so
    // a pooled median would sit in the gap between them; the
    // geometric mean of the per-policy medians moves with both.
    std::map<std::string, std::vector<double>> exact_lat;
    for (const auto &[spec, l] : exact_best)
        exact_lat[run.specs[spec].parallel ? "astar-par" : "astar"]
            .push_back(l);
    m["solve_p50_ms"] = std::sqrt(percentile(exact_lat["astar"], 50.0) *
                                  percentile(exact_lat["astar-par"], 50.0));
    m["makespan_ratio"] =
        ratio_n > 0 ? std::exp(log_ratio / ratio_n) : 0.0;
    // Add-one smoothing keeps the share above zero on a clean run,
    // so a regression bound relative to the parent stays defined.
    m["failed_share"] = static_cast<double>(not_ok + 1) /
                        static_cast<double>(attempted + 1);

    m["server.unattributed_p50_ms"] = percentile(unattributed, 50.0);
    m["server.unattributed_p99_ms"] = percentile(unattributed, 99.0);
    m["admission.wait_p50_ms"] = percentile(wait_short, 50.0);
    m["admission.wait_p99_ms"] = percentile(wait_short, 99.0);
    m["admission.exact_wait_p50_ms"] = percentile(wait_exact, 50.0);
    m["admission.exact_wait_p99_ms"] = percentile(wait_exact, 99.0);
    for (const char *p : {"iar", "astar", "astar-par"})
        m[std::string("engine.solve_p50_ms.") + p] =
            percentile(solve_by_policy[p], 50.0);
    m["exec.eval_cache.hit_ratio"] =
        ec_hits + ec_misses > 0 ? ec_hits / (ec_hits + ec_misses) : 0.0;
    for (const char *c : {"spilled", "retried", "failed"}) {
        const std::string name = std::string("cluster.requests.") + c;
        m[name] = run.router ? (*router_after)[name] -
                                   (*router_before)[name]
                             : 0.0;
    }
    m["gen.late_p99_ms"] = percentile(late, 99.0);
    for (int p = 0; p < kPhases; ++p) {
        const std::string pre =
            std::string("gen.") + kPhaseNames[p] + ".";
        m[pre + "sent"] = static_cast<double>(count[p].sent);
        m[pre + "ok"] = static_cast<double>(count[p].ok);
        m[pre + "failed"] = static_cast<double>(count[p].failed);
        m[pre + "refused"] =
            static_cast<double>(count[p].refused + count[p].transport);
    }

    // Ten samples beyond p99 need a thousand; a smoke run is exempt.
    if (!run.smoke && fewest_samples / 100 < 10)
        run.errors.push_back("a round has only " +
                             std::to_string(fewest_samples) +
                             " short-class samples: fewer than ten "
                             "lie beyond its p99");

    if (trace) {
        TracedInput in;
        in.nproc = run.nproc;
        for (std::size_t i = 0; i < orders.open.size() && i < 200; ++i)
            in.iar.push_back(run.specs[orders.open[i].spec]);
        for (std::size_t i = 0; i < run.pool.size() && i < 8; ++i)
            in.exact.push_back(run.pool[i]);
        for (const auto &[k, v] : runTraced(in, trace_out))
            m[k] = v;
    }

    // ---- output ----
    std::ostream &os = std::cout;
    os << "{\"correct\": " << (run.errors.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << not_ok
       << ", \"metrics\": ";
    emitObject(os, m);
    os << ", \"info\": {\"offered_rps\": ";
    emitNumber(os, plan.rate);
    os << ", \"achieved_rps\": ";
    double open_total_s = 0.0;
    for (double t : open_s)
        open_total_s += t;
    emitNumber(os, static_cast<double>(short_total) / open_total_s);
    os << ", \"slo_ms\": ";
    emitNumber(os, plan.sloMs);
    os << ", \"prepare_s\": ";
    emitNumber(os, prep_s);
    os << ", \"short_samples\": " << short_total
       << ", \"distinct_bases\": " << run.specs.size()
       << ", \"attribution_ms\": {";
    for (int k = 0; k < 2; ++k) {
        const double n = std::max(attr[k][3], 1.0);
        os << (k ? ", " : "") << "\"" << (k ? "exact" : "iar")
           << "\": ";
        emitObject(os, {{"client", attr[k][0] / n},
                        {"queue", attr[k][1] / n},
                        {"solve", attr[k][2] / n},
                        {"unattributed",
                         (attr[k][0] - attr[k][1] - attr[k][2]) / n},
                        {"samples", attr[k][3]}});
    }
    os << "}, \"pooled\": ";
    emitObject(os, {{"latency_p50_ms", percentile(all_lat, 50.0)},
                    {"latency_p99_ms", percentile(all_lat, 99.0)}});
    os << ", \"rounds\": {";
    const std::pair<const char *, const std::vector<double> *> per_round[] =
        {{"latency_p50_ms", &p50}, {"latency_p99_ms", &p99},
         {"slo_met_share", &slo}, {"throughput_rps", &rps}};
    for (std::size_t k = 0; k < 4; ++k) {
        os << (k ? ", " : "") << "\"" << per_round[k].first << "\": [";
        for (std::size_t r = 0; r < per_round[k].second->size(); ++r) {
            os << (r ? ", " : "");
            emitNumber(os, (*per_round[k].second)[r]);
        }
        os << "]";
    }
    os << "}, \"errors\": [";
    for (std::size_t i = 0; i < run.errors.size(); ++i) {
        os << (i ? ", " : "");
        emitString(os, run.errors[i]);
    }
    os << "], \"stats_before\": [";
    for (std::size_t i = 0; i < stats_before.size(); ++i) {
        os << (i ? ", " : "");
        emitObject(os, stats_before[i]);
    }
    os << "]}}" << std::endl;
    return 0;
}
