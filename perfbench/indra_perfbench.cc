/**
 * @file
 * indra_perfbench: the simulator measured from the outside.
 *
 * One process runs one workload. It drives core::NodeHandle one
 * scheduled event at a time (advanceTo(nextPendingTick())) on this
 * thread, repeating the whole workload - set-up included - until the
 * requested number of seconds has been measured, and prints one JSON
 * object as its last line. perfbench/run.py builds this program,
 * checks the digests against perfbench/reference.json and formats
 * the benchmark's result.
 *
 * Repeats rotate over subSeeds seeds derived from --seed, so one
 * seed's request mix weighs less in a run's figures. Host time is
 * measured in wall-clock time and, for the bounded end-to-end
 * figures, calibrated against a fixed loop run interleaved with the
 * workload (see Calibrator): a shared host's speed can drift by tens
 * of percent within and between runs.
 *
 * Untraced (--trace 0) the program measures the end-to-end figures:
 * simulated instructions per calibration iteration, executed requests
 * per calibrated second, calibrated host time per request-executing
 * step, calibrated set-up time, peak resident memory, and the
 * deterministic simulated IPC and goodput; the same in raw host time
 * go along as host.*.
 *
 * Traced (--trace 1) it also measures the per-layer ledger for one
 * run of the workload at --seed, only through the program's public
 * surface:
 *   - interposers on Core's public hook setters (checkpoint hooks,
 *     trace sink, syscall handler) that forward to the slot's policy,
 *     monitor and kernel and time each call; spans stay at step
 *     granularity, with per-layer child totals aggregated per step;
 *   - direct timed calls into layer APIs (macro capture/restore,
 *     checksum32, request synthesis, page translation) on a separate
 *     booted system, never the timed one;
 *   - the stat tree and attachTraceLog event counts, read after the
 *     run.
 * Traced repeats alternate with untraced ones of the same seed, so the
 * trace overhead is measured in the same process.
 *
 * Every repeat's simulated digest must equal the first of its seed's,
 * and the stepped digest must equal the one-call IndraSystem::runStorm
 * digest: stepping must not hide a divergence.
 *
 * Usage: indra_perfbench --workload NAME --seed N --seconds S
 *                        --trace 0|1
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "calib.hh"
#include "core/node_handle.hh"
#include "core/system.hh"
#include "faults/fault_injector.hh"
#include "net/daemon_profile.hh"
#include "net/workload.hh"
#include "obs/events.hh"
#include "obs/trace_log.hh"
#include "resilience/storm.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

using namespace indra;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** CPU time this thread has used, in seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p (0..100) of @p v. */
double
percentileOf(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ------------------------------------------------------- workloads

/**
 * One workload. All use httpd at 25 000 instructions per request, as
 * bench_perf_kernel does, so the rows stay comparable with its
 * history; the storm is open-loop in simulated time and one closed
 * loop on the host (the next event is stepped when the last returns).
 */
struct Workload
{
    const char *name;
    CheckpointScheme scheme;
    std::uint32_t domains; //!< 0 = config default
    double legitRate;      //!< legitimate requests per Mcycle
    std::uint64_t legitRequests;
    double attackRate;     //!< attack requests per Mcycle
    std::uint32_t burst;
    std::uint32_t bound;   //!< guard queue bound; 0 = guard disarmed
};

const Workload workloads[] = {
    // Legitimate traffic only, no guard, unsaturated: isolates
    // execute, workload synthesis, delta-backup hooks, translation and
    // the monitor; macro capture and restore barely run. A request
    // keeps the core busy for about a million cycles, so at 1/Mcycle
    // some seeds already give up requests; 0.8/Mcycle keeps them
    // unsaturated.
    {"clean_stream", CheckpointScheme::DeltaBackup, 0, 0.8, 1400, 0.0, 1, 0},
    // bench_perf_kernel's unguarded burst storm: nearly every request
    // needs recovery, so restore, capture and checksum dominate.
    {"recovery_storm", CheckpointScheme::DeltaBackup, 0, 0.5, 100, 16.0, 8,
     0},
    // DomainRewind over 8 domains, guard armed, sparse single stack
    // smashes below the collapse point: per-store anchor capture and
    // confined rewinds instead of delta backup and macro recovery.
    // (Bursts of 4 escalate to macro recovery on 7 of 16 seeds.)
    {"domain_rewind", CheckpointScheme::DomainRewind, 8, 1.0, 700, 0.2, 1,
     6},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

core::NodeConfig
nodeConfig(const Workload &w, std::uint64_t seed)
{
    core::NodeConfig node;
    node.system.physMemBytes = 128ULL * 1024 * 1024;
    node.system.consecutiveFailureThreshold = 4;
    node.system.checkpointScheme = w.scheme;
    node.system.rngSeed = seed;
    if (w.domains)
        node.system.domainCount = w.domains;
    if (w.bound) {
        node.resilience.queueBound = w.bound;
        node.resilience.fifoHighWater = 48;
        node.resilience.degradeViolations = 2;
        node.resilience.quarantineFailStreak = 2;
        node.resilience.healServedStreak = 3;
    }
    return node;
}

resilience::StormPlan
stormPlan(const Workload &w, std::uint64_t seed)
{
    resilience::StormPlan plan;
    plan.seed = seed;
    plan.legitRequests = w.legitRequests;
    plan.legitRatePerMCycle = w.legitRate;
    plan.attackRatePerMCycle = w.attackRate;
    plan.burstLen = w.burst;
    plan.attackKind = net::AttackKind::StackSmash;
    plan.deadline = 3000000;
    plan.probePeriod = 50000;
    return plan;
}

net::DaemonProfile
daemonProfile()
{
    net::DaemonProfile profile = net::daemonByName("httpd");
    profile.instrPerRequest = 25000;
    return profile;
}

/**
 * Each run measures the workload at subSeeds seeds derived from its
 * --seed, in rotation, so that what one seed's request mix costs
 * weighs less in a run's figures. Sub-seed 0 is --seed itself.
 */
constexpr std::size_t subSeeds = 5;

std::uint64_t
subSeed(std::uint64_t seed, std::size_t k)
{
    return seed + k * 1000003ULL;
}

// ------------------------------------------------------- stat tree

/** Flattens the stat tree into "group/.../stat" -> value. */
class FlatStats : public stats::StatSink
{
  public:
    std::map<std::string, double> values;

    void
    beginGroup(const stats::StatGroup &g) override
    {
        path.push_back(g.name());
    }

    void
    endGroup(const stats::StatGroup &) override
    {
        path.pop_back();
    }

    void
    visitScalar(const stats::StatBase &stat, double value) override
    {
        values[key(stat.name())] = value;
    }

    void
    visitDistribution(const stats::Distribution &) override
    {
    }

    void
    visitHistogram(const stats::Histogram &) override
    {
    }

    /** Sum of every stat whose path ends in "/<tail>". */
    double
    sum(const std::string &suffix) const
    {
        std::string tail = "/" + suffix;
        double total = 0;
        for (const auto &[k, v] : values) {
            if (k.size() >= tail.size() &&
                k.compare(k.size() - tail.size(), tail.size(), tail) == 0)
                total += v;
        }
        return total;
    }

  private:
    std::string
    key(const std::string &name) const
    {
        std::string k;
        for (const std::string &p : path)
            k += p + "/";
        return k + name;
    }

    std::vector<std::string> path;
};

FlatStats
flatten(core::IndraSystem &sys)
{
    FlatStats f;
    sys.rootStats().accept(f);
    return f;
}

/**
 * Stat-tree counters folded into the digest: "<group>/<stat>" tails,
 * summed (the delta and domain engines keep the same counters under
 * their own groups).
 */
struct StatKey
{
    const char *name;
    std::vector<const char *> tails;
};

const StatKey statKeys[] = {
    {"lines_backed_up",
     {"ckpt_delta/lines_backed_up", "ckpt_domain/lines_backed_up"}},
    {"rollbacks", {"ckpt_delta/rollbacks", "ckpt_domain/rollbacks"}},
    {"macro_captures", {"macro_ckpt/captures"}},
    {"macro_restores", {"macro_ckpt/restores"}},
    {"domain_rewinds", {"ckpt_domain/domain_rewinds"}},
    {"monitor_records", {"monitor/records"}},
    {"syscalls", {"kernel/syscalls"}},
};

double
statValue(const FlatStats &st, const StatKey &k)
{
    double total = 0;
    for (const char *tail : k.tails)
        total += st.sum(tail);
    return total;
}

// ---------------------------------------------------------- digest

using Digest = std::map<std::string, std::uint64_t>;

/** Everything simulated a run produced that a speed-only change keeps. */
Digest
digestOf(const resilience::StormReport &rep, std::uint64_t instructions,
         const FlatStats &st)
{
    Digest d;
    d["executed"] = rep.executed;
    d["legit_arrivals"] = rep.legitArrivals;
    d["attack_arrivals"] = rep.attackArrivals;
    d["probes"] = rep.probes;
    d["legit_served"] = rep.legitServed;
    d["legit_failed"] = rep.legitFailed;
    d["legit_gave_up"] = rep.legitGaveUp;
    d["retries"] = rep.retries;
    d["attack_executed"] = rep.attackExecuted;
    d["probes_served"] = rep.probesServed;
    d["end_tick"] = rep.endTick;
    d["legit_p99"] = rep.legitP99;
    d["recovery_p99"] = rep.recoveryP99;
    d["domain_rewinds_report"] = rep.domainRewinds;
    d["dormant_after_rewind"] = rep.dormantAfterRewind;
    d["reinfections"] = rep.reinfections;
    d["instructions"] = instructions;
    for (std::size_t r = 1; r < net::shedReasonCount; ++r) {
        d[std::string("shed.") +
          net::shedReasonName(static_cast<net::ShedReason>(r))] =
            rep.sheds[r];
    }
    for (const StatKey &k : statKeys) {
        d[std::string("stat.") + k.name] =
            static_cast<std::uint64_t>(statValue(st, k));
    }
    return d;
}

constexpr std::size_t statusCount =
    static_cast<std::size_t>(net::RequestStatus::DomainRewound) + 1;

std::string
statusKey(std::size_t i)
{
    return std::string("status.") +
        net::requestStatusName(static_cast<net::RequestStatus>(i));
}

// ------------------------------------------------------ calibration

/**
 * Runs the fixed calibration loop in chunks interleaved with the
 * workload (between steps, outside every timed span) and turns host
 * time into calibrated time.
 *
 * Calibrated time is thread CPU time, so a step the host scheduler
 * preempted is not charged for the wait; and since the host's speed
 * itself drifts by tens of percent on a scale of a second, chunk i
 * runs after segment i of the workload and before segment i + 1, and
 * CPU time spent in segment i is scaled by the mean rate of the two
 * chunks around it, relative to a fixed nominal rate. The result is
 * the time the work would have taken had the calibration loop run at
 * nominalMips: it judges the code, not the host.
 */
class Calibrator
{
  public:
    static constexpr std::uint64_t chunkIters = 1u << 18;
    static constexpr double interval = 0.05; //!< seconds between chunks
    /** Calibration-loop rate that calibrated times are scaled to. */
    static constexpr double nominalMips = 100.0;

    /** Run a chunk when the last one is older than interval. */
    void
    maybeRun()
    {
        if (rates.empty() || seconds(Clock::now() - last) >= interval)
            run();
    }

    void
    run()
    {
        auto t0 = Clock::now();
        double c0 = threadCpuSeconds();
        sink += perfbench::calibrationChunk(chunkIters);
        double cpu = threadCpuSeconds() - c0;
        last = Clock::now();
        wall += last - t0;
        cpuSpent += cpu;
        rates.push_back(static_cast<double>(chunkIters) / 1e6 / cpu);
    }

    /** The segment running now (ends when the next chunk runs). */
    std::size_t segment() const { return rates.size(); }

    /**
     * CPU-to-calibrated time factor of segment @p seg; valid once the
     * chunks on both sides of it have run.
     */
    double
    factor(std::size_t seg) const
    {
        return 0.5 * (rates.at(seg - 1) + rates.at(seg)) / nominalMips;
    }

    /** Million iterations per CPU second over chunks [from, end). */
    double
    mipsSince(std::size_t from) const
    {
        double time = 0;
        for (std::size_t i = from; i < rates.size(); ++i)
            time += 1.0 / rates[i];
        return static_cast<double>(rates.size() - from) / time;
    }

    /** Wall and CPU time spent in chunks so far. */
    Clock::duration wall{};
    double cpuSpent = 0;
    std::uint64_t sink = 0;

  private:
    std::vector<double> rates; //!< million iterations per CPU second
    Clock::time_point last;
};

// ------------------------------------------------------ interposers

/** Call count and accumulated host time of one interposed entry. */
struct Timed
{
    std::uint64_t calls = 0;
    Clock::duration time{};

    template <typename F>
    auto
    measure(F &&f)
    {
        auto t0 = Clock::now();
        auto r = f();
        time += Clock::now() - t0;
        ++calls;
        return r;
    }
};

/** Forwards the checkpoint hooks to the slot's policy, timing them. */
class TimedHooks : public cpu::CheckpointHooks
{
  public:
    explicit TimedHooks(cpu::CheckpointHooks &inner) : inner(inner) {}

    Cycles
    onStore(Tick tick, Pid pid, Addr vaddr, std::uint32_t bytes) override
    {
        return store.measure(
            [&] { return inner.onStore(tick, pid, vaddr, bytes); });
    }

    Cycles
    onLoad(Tick tick, Pid pid, Addr vaddr, std::uint32_t bytes) override
    {
        return load.measure(
            [&] { return inner.onLoad(tick, pid, vaddr, bytes); });
    }

    Timed store, load;

  private:
    cpu::CheckpointHooks &inner;
};

/** Forwards trace records to the slot's monitor, timing submits. */
class TimedSink : public cpu::TraceSink
{
  public:
    explicit TimedSink(cpu::TraceSink &inner) : inner(inner) {}

    Tick
    submit(const cpu::TraceRecord &rec, Tick tick) override
    {
        return submits.measure([&] { return inner.submit(rec, tick); });
    }

    Tick
    drainTick() const override
    {
        ++drains;
        return inner.drainTick();
    }

    Timed submits;
    mutable std::uint64_t drains = 0;

  private:
    cpu::TraceSink &inner;
};

/** Forwards syscalls to the kernel, timing them. */
class TimedSyscalls : public cpu::SyscallHandler
{
  public:
    explicit TimedSyscalls(cpu::SyscallHandler &inner) : inner(inner) {}

    cpu::SyscallResult
    syscall(Tick tick, Pid pid, std::uint32_t sysno, std::uint64_t arg0,
            std::uint64_t arg1) override
    {
        return calls.measure(
            [&] { return inner.syscall(tick, pid, sysno, arg0, arg1); });
    }

    Timed calls;

  private:
    cpu::SyscallHandler &inner;
};

/**
 * The interposers of one traced repeat, installed after deploy and
 * removed again (the slot's own policy, monitor and kernel put back)
 * when the repeat ends.
 */
class Interposers
{
  public:
    Interposers(core::IndraSystem &sys, core::ServiceSlot &s)
        : hooks(*s.policy), sink(*s.monitor), syscalls(sys.kernel()),
          slot(s), kernel(sys.kernel())
    {
        // Deploy installs each hook exactly once (core/system.cc), and
        // nothing re-installs them for a slot without co-services, so
        // the wrappers stay in place for the whole storm.
        s.core->setCheckpointHooks(&hooks);
        s.core->setTraceSink(&sink);
        s.core->setSyscallHandler(&syscalls);
    }

    ~Interposers()
    {
        slot.core->setCheckpointHooks(slot.policy.get());
        slot.core->setTraceSink(slot.monitor.get());
        slot.core->setSyscallHandler(&kernel);
    }

    Interposers(const Interposers &) = delete;
    Interposers &operator=(const Interposers &) = delete;

    /** Host time spent inside every interposed call so far. */
    Clock::duration
    childTime() const
    {
        return hooks.store.time + hooks.load.time + sink.submits.time +
            syscalls.calls.time;
    }

    TimedHooks hooks;
    TimedSink sink;
    TimedSyscalls syscalls;

  private:
    core::ServiceSlot &slot;
    os::Kernel &kernel;
};


// ---------------------------------------------------------- repeats

/** What one full run of the workload measured. */
struct Repeat
{
    std::size_t k = 0; //!< sub-seed index
    double setupS = 0;
    double setupCalS = 0; //!< calibrated
    /** Handle construction to finish(), calibration chunks excluded. */
    double runS = 0;
    double runCalS = 0; //!< calibrated (from thread CPU time)
    /** Calibration rate over the chunks run during this repeat. */
    double calibMips = 0;
    std::uint64_t instructions = 0;
    std::uint64_t steps = 0;
    std::uint64_t recoverySteps = 0;
    double stepS = 0;
    double recoveryStepS = 0;
    /** Host time inside interposed calls (traced repeats only). */
    double childS = 0;
    /** Steps that executed a request: wall and calibrated ms. */
    std::vector<double> reqStepMs, reqStepCalMs;
    resilience::StormReport rep;
    Digest digest;
    FlatStats stats;

    // Traced repeats only.
    std::uint64_t storeCalls = 0, loadCalls = 0, submitCalls = 0,
                  drainCalls = 0, syscallCalls = 0;
    double storeS = 0, loadS = 0, submitS = 0, syscallS = 0;
    std::array<std::uint64_t, obs::eventKindCount> events{};
    std::uint64_t eventsDropped = 0;

    double mips() const { return instructions / runS / 1e6; }
    /** Simulated instructions per calibration-loop iteration. */
    double
    instrPerCalIter() const
    {
        return instructions / (runCalS * Calibrator::nominalMips * 1e6);
    }
};

Repeat
runRepeat(const Workload &w, std::uint64_t seed, std::size_t k, bool traced,
          Calibrator &cal)
{
    Repeat r;
    r.k = k;
    cal.run();
    std::size_t seg0 = cal.segment();

    std::unique_ptr<obs::TraceLog> log;
    if (traced)
        log = std::make_unique<obs::TraceLog>();
    auto t0 = Clock::now();
    double cpu0 = threadCpuSeconds();
    core::IndraSystem sys(nodeConfig(w, seed));
    sys.attachTraceLog(log.get());
    sys.boot();
    std::size_t idx = sys.deployService(daemonProfile());
    r.setupS = seconds(Clock::now() - t0);
    double setupCpu = threadCpuSeconds() - cpu0;

    core::ServiceSlot &slot = sys.slot(idx);
    std::unique_ptr<Interposers> ip;
    if (traced)
        ip = std::make_unique<Interposers>(sys, slot);
    std::uint64_t instr0 = slot.core->instructions();
    std::array<std::uint64_t, statusCount> statuses{};

    /** One step: wall and CPU seconds, and the segment it ran in. */
    struct Step
    {
        double wall, cpu;
        std::size_t seg;
        bool request;
    };
    std::vector<Step> steps;
    Clock::duration stepTotal{}, recoveryTotal{}, childTotal{};
    Clock::duration calWall0 = cal.wall;
    double calCpu0 = cal.cpuSpent;
    auto run0 = Clock::now();
    double runCpu0 = threadCpuSeconds();
    core::NodeHandle node(sys, idx, stormPlan(w, seed));
    node.collectEvents(true);
    while (!node.idle()) {
        cal.maybeRun();
        Clock::duration child0 = ip ? ip->childTime() : Clock::duration{};
        double c0 = threadCpuSeconds();
        auto s0 = Clock::now();
        node.advanceTo(node.nextPendingTick());
        auto span = Clock::now() - s0;
        double cpu = threadCpuSeconds() - c0;
        if (ip)
            childTotal += ip->childTime() - child0;
        std::vector<core::NodeEvent> done = node.drainEvents();
        ++r.steps;
        stepTotal += span;
        bool recovery = false;
        for (const core::NodeEvent &ev : done) {
            ++statuses[static_cast<std::size_t>(ev.status)];
            recovery |= ev.status != net::RequestStatus::Served;
        }
        steps.push_back({seconds(span), cpu, cal.segment(), !done.empty()});
        if (recovery) {
            ++r.recoverySteps;
            recoveryTotal += span;
        }
    }
    r.rep = node.finish();
    r.runS = seconds(Clock::now() - run0 - (cal.wall - calWall0));
    double runCpu = threadCpuSeconds() - runCpu0 - (cal.cpuSpent - calCpu0);
    r.instructions = slot.core->instructions() - instr0;
    r.stepS = seconds(stepTotal);
    r.recoveryStepS = seconds(recoveryTotal);
    r.childS = seconds(childTotal);
    r.stats = flatten(sys);
    r.digest = digestOf(r.rep, r.instructions, r.stats);
    for (std::size_t i = 0; i < statusCount; ++i)
        r.digest[statusKey(i)] = statuses[i];

    cal.run();
    r.calibMips = cal.mipsSince(seg0);
    r.setupCalS = setupCpu * cal.factor(seg0);
    double stepCpu = 0;
    for (const Step &st : steps) {
        double calS = st.cpu * cal.factor(st.seg);
        r.runCalS += calS;
        stepCpu += st.cpu;
        if (st.request) {
            r.reqStepMs.push_back(st.wall * 1e3);
            r.reqStepCalMs.push_back(calS * 1e3);
        }
    }
    // Outside the steps (handle construction, draining, finish) the
    // repeat's mean calibration rate applies.
    r.runCalS += (runCpu - stepCpu) * r.calibMips / Calibrator::nominalMips;

    if (ip) {
        r.storeCalls = ip->hooks.store.calls;
        r.storeS = seconds(ip->hooks.store.time);
        r.loadCalls = ip->hooks.load.calls;
        r.loadS = seconds(ip->hooks.load.time);
        r.submitCalls = ip->sink.submits.calls;
        r.submitS = seconds(ip->sink.submits.time);
        r.drainCalls = ip->sink.drains;
        r.syscallCalls = ip->syscalls.calls.calls;
        r.syscallS = seconds(ip->syscalls.calls.time);
        for (std::size_t k = 0; k < obs::eventKindCount; ++k)
            r.events[k] = log->countOf(static_cast<obs::EventKind>(k));
        r.eventsDropped = log->dropped();
        sys.attachTraceLog(nullptr);
    }
    return r;
}

/**
 * The median of @p f over @p reps. Repeats of all sub-seeds are pooled:
 * the median rides out a burst of host interference that slows one
 * repeat, which a per-sub-seed statistic over two repeats would not.
 */
template <typename F>
double
medianOf(const std::vector<Repeat> &reps, F f)
{
    std::vector<double> v;
    for (const Repeat &r : reps)
        v.push_back(static_cast<double>(f(r)));
    return median(v);
}

/** The one-call runStorm digest of the same workload and seed. */
Digest
runStormDigest(const Workload &w, std::uint64_t seed)
{
    core::IndraSystem sys(nodeConfig(w, seed));
    sys.boot();
    std::size_t idx = sys.deployService(daemonProfile());
    std::uint64_t instr0 = sys.slot(idx).core->instructions();
    resilience::StormReport rep = sys.runStorm(idx, stormPlan(w, seed));
    return digestOf(rep, sys.slot(idx).core->instructions() - instr0,
                    flatten(sys));
}

/** Set-up alone: construction + boot() + deployService(). */
double
timeSetup(const Workload &w, std::uint64_t seed)
{
    auto t0 = Clock::now();
    core::IndraSystem sys(nodeConfig(w, seed));
    sys.boot();
    sys.deployService(daemonProfile());
    return seconds(Clock::now() - t0);
}

// ------------------------------------------------- direct layer calls

/** Median over @p batches of the host seconds @p f takes. */
template <typename F>
double
medianTime(int batches, F &&f)
{
    std::vector<double> t;
    for (int b = 0; b < batches; ++b) {
        auto t0 = Clock::now();
        f();
        t.push_back(seconds(Clock::now() - t0));
    }
    return median(t);
}

/**
 * Layer costs timed by calling each layer's API directly on a
 * separate booted system (never the timed one).
 */
std::map<std::string, double>
measureLayers(const Workload &w, std::uint64_t seed)
{
    std::map<std::string, double> out;
    core::NodeConfig nc = nodeConfig(w, seed);
    core::IndraSystem side(nc);
    side.boot();
    net::DaemonProfile profile = daemonProfile();
    std::size_t idx = side.deployService(profile);
    core::ServiceSlot &s = side.slot(idx);
    os::Process &proc = side.kernel().process(s.pid);
    std::uint32_t pageBytes = nc.system.pageBytes;
    volatile std::uint64_t sink = 0;

    // Macro capture and restore of the deployed service's image.
    double pages = static_cast<double>(proc.space->pageCount());
    out["checkpoint.macro_pages"] = pages;
    std::vector<double> cap, res;
    for (int i = 0; i < 15; ++i) {
        auto t0 = Clock::now();
        s.macro->capture(0, *proc.context, *proc.space, *proc.resources);
        auto t1 = Clock::now();
        ckpt::MacroRestoreResult rr = s.macro->restore(
            0, *proc.context, *proc.space, *proc.resources);
        auto t2 = Clock::now();
        fatal_if(!rr.ok, "perfbench: macro restore refused");
        cap.push_back(seconds(t1 - t0));
        res.push_back(seconds(t2 - t1));
    }
    out["checkpoint.macro_capture_ms"] = median(cap) * 1e3;
    out["checkpoint.macro_restore_ms"] = median(res) * 1e3;
    out["checkpoint.macro_capture_ns_per_page"] = median(cap) * 1e9 / pages;
    out["checkpoint.macro_restore_ns_per_page"] = median(res) * 1e9 / pages;

    // checksum32 over one page of pseudo-random bytes.
    std::vector<std::uint8_t> page(pageBytes);
    Pcg32 rng(seed);
    for (auto &b : page)
        b = static_cast<std::uint8_t>(rng.next());
    constexpr int sums = 4000;
    out["faults.checksum32_ns_per_page"] =
        medianTime(9, [&] {
            for (int i = 0; i < sums; ++i) {
                page[i % pageBytes] ^= 1;
                sink = sink + faults::checksum32(page.data(), page.size());
            }
        }) * 1e9 / sums;

    // Request synthesis on a standalone application.
    net::ServiceApplication app(profile, seed, pageBytes);
    std::uint64_t seq = 0, emitted = 0;
    double synth = medianTime(9, [&] {
        emitted = 0;
        for (int i = 0; i < 8; ++i) {
            net::ServiceRequest req;
            req.seq = seq++;
            net::RequestExecution ex = app.beginRequest(req);
            cpu::Instruction ins;
            while (ex.next(ins))
                ++emitted;
            sink = sink + ins.pc;
        }
    });
    out["net.synth_ns_per_instr"] = synth * 1e9 / emitted;

    // Page translation over the service's mapped pages, random order.
    std::vector<Vpn> vpns = proc.space->mappedPages();
    std::vector<Vpn> order(1u << 16);
    for (Vpn &v : order)
        v = vpns[rng.next() % vpns.size()];
    const os::Kernel &kernel = side.kernel();
    out["os.translate_ns"] =
        medianTime(9, [&] {
            for (Vpn v : order)
                sink = sink + kernel.translate(s.pid, v);
        }) * 1e9 / static_cast<double>(order.size());
    return out;
}

// ------------------------------------------------------------ output

/** Minimal JSON object writer: keys in insertion order. */
class JsonObject
{
  public:
    template <typename T>
    JsonObject &
    add(const std::string &key, const T &value)
    {
        std::ostringstream os;
        os << std::setprecision(17) << value;
        return raw(key, os.str());
    }

    JsonObject &
    str(const std::string &key, const std::string &value)
    {
        return raw(key, "\"" + value + "\"");
    }

    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        body += (body.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
        return *this;
    }

    std::string text() const { return "{" + body + "}"; }

  private:
    std::string body;
};

template <typename Map>
std::string
jsonOf(const Map &m)
{
    JsonObject o;
    for (const auto &[k, v] : m)
        o.add(k, v);
    return o.text();
}

/** One named pass/fail correctness check. */
struct Check
{
    std::string name;
    bool ok;
};

/**
 * The invariants every seed must meet, and the workload's declared
 * shape: a workload that stops exercising its layer fails here.
 */
void
checkDigest(const Workload &w, const Digest &d, std::vector<Check> &checks)
{
    auto at = [&](const std::string &k) { return d.at(k); };
    std::uint64_t statuses = 0, sheds = 0;
    for (std::size_t i = 0; i < statusCount; ++i)
        statuses += at(statusKey(i));
    for (const auto &[k, v] : d) {
        if (k.rfind("shed.", 0) == 0)
            sheds += v;
    }
    std::uint64_t executed = at("executed");
    std::uint64_t served = at("status.served");
    checks.push_back({"invariant.statuses_sum_to_executed",
                      statuses == executed});
    checks.push_back({"invariant.served_le_arrivals",
                      at("legit_served") <= at("legit_arrivals")});
    checks.push_back({"invariant.no_lost", at("status.lost") == 0});
    checks.push_back({"invariant.no_dormant_after_rewind",
                      at("dormant_after_rewind") == 0});
    checks.push_back({"invariant.executed", executed > 0});

    const std::string name = w.name;
    if (name == "clean_stream") {
        // Unsaturated: every request served, a rare deadline shed
        // retried, nothing given up.
        checks.push_back({"shape.unsaturated",
                          at("attack_arrivals") == 0 &&
                              at("legit_gave_up") == 0 &&
                              at("legit_served") == at("legit_arrivals") &&
                              executed == at("legit_arrivals") &&
                              sheds * 50 <= at("legit_arrivals")});
        checks.push_back({"shape.no_macro_restore",
                          at("stat.macro_restores") == 0});
    } else if (name == "recovery_storm") {
        checks.push_back({"shape.recovery_dominated",
                          (executed - served) * 10 >= executed * 9});
        checks.push_back({"shape.macro_and_rejuvenation",
                          at("status.macro-recovered") > 0 &&
                              at("status.rejuvenated") > 0});
    } else {
        // The recovery ladder still escalates a rare run of
        // consecutive failures to macro recovery (1 of 64 seeds);
        // confined rewinds must dominate by far.
        std::uint64_t rewinds = at("domain_rewinds_report");
        checks.push_back({"shape.rewinds",
                          rewinds > 0 && at("stat.domain_rewinds") > 0});
        checks.push_back({"shape.rewinds_dominate",
                          (at("status.macro-recovered") +
                           at("status.rejuvenated")) * 20 <= rewinds &&
                              at("stat.macro_restores") * 20 <= rewinds});
    }
}

void
usage()
{
    std::cerr << "usage: indra_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n  workloads:";
    for (const Workload &w : workloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
}

bool
parseUint(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 19 ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(s);
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogVerbosity(0);
    std::string workload;
    std::uint64_t seed = 0, secs = 0, trace = 2;
    bool haveSeed = false, haveSecs = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string val = i + 1 < argc ? argv[i + 1] : "";
        bool ok = i + 1 < argc;
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            ok = ok && (haveSeed = parseUint(val, seed)) && seed > 0;
        else if (arg == "--seconds")
            ok = ok && (haveSecs = parseUint(val, secs)) && secs > 0 &&
                secs <= 600;
        else if (arg == "--trace")
            ok = ok && parseUint(val, trace) && trace <= 1;
        else
            ok = false;
        if (!ok) {
            std::cerr << "indra_perfbench: bad argument " << arg << " "
                      << val << "\n";
            usage();
            return 2;
        }
        ++i;
    }
    const Workload *w = findWorkload(workload);
    if (!w || !haveSeed || !haveSecs || trace > 1) {
        usage();
        return 2;
    }
    const std::string buildType = INDRA_PERFBENCH_BUILD_TYPE;
    if (buildType != "Release") {
        std::cerr << "indra_perfbench: refusing to time a '" << buildType
                  << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }

    // Set-up alone, several times, each between two calibration chunks.
    Calibrator cal;
    std::vector<double> setups, setupsCal;
    cal.run();
    for (int i = 0; i < 15; ++i) {
        double cpu0 = threadCpuSeconds();
        setups.push_back(timeSetup(*w, seed));
        double cpu = threadCpuSeconds() - cpu0;
        std::size_t seg = cal.segment();
        cal.run();
        setupsCal.push_back(cpu * cal.factor(seg));
    }
    Digest storm = runStormDigest(*w, seed);

    // Rounds of one untraced repeat per sub-seed, while another repeat
    // still fits in the requested time; at least one round. Under
    // --trace 1 a traced repeat of sub-seed 0 follows each untraced
    // one of it.
    std::vector<Repeat> plain, traced;
    auto start = Clock::now();
    double longest = 0;
    for (std::size_t i = 0;; ++i) {
        std::size_t k = i % subSeeds;
        if (i >= subSeeds &&
            seconds(Clock::now() - start) + longest >
                static_cast<double>(secs))
            break;
        auto r0 = Clock::now();
        plain.push_back(runRepeat(*w, subSeed(seed, k), k, false, cal));
        if (trace && k == 0)
            traced.push_back(runRepeat(*w, seed, 0, true, cal));
        longest = std::max(longest, seconds(Clock::now() - r0));
    }

    // ------------------------------------------------ correctness
    std::vector<Check> checks;
    std::vector<const Repeat *> first(subSeeds, nullptr);
    for (const Repeat &r : plain) {
        if (!first[r.k])
            first[r.k] = &r;
    }
    for (const auto *set : {&plain, &traced}) {
        for (const Repeat &r : *set) {
            if (&r != first[r.k])
                checks.push_back({"repeat_identical",
                                  r.digest == first[r.k]->digest});
        }
    }
    const Digest &d0 = first[0]->digest;
    for (const auto &[k, v] : storm) {
        auto it = d0.find(k);
        checks.push_back(
            {"run_storm." + k, it != d0.end() && it->second == v});
    }
    std::uint64_t instructions = 0, endTicks = 0, served = 0;
    for (const Repeat *r : first) {
        checkDigest(*w, r->digest, checks);
        instructions += r->instructions;
        endTicks += r->rep.endTick;
        served += r->rep.legitServed;
    }

    // ------------------------------------------------ end to end
    // Host times in calibrated units are the bounded end-to-end
    // figures; the raw host figures go to the ledger as host.*.
    // Step-time percentiles are taken per repeat: a burst of host
    // interference inside one repeat moves that repeat's tail only.
    std::size_t samples = 0;
    for (const Repeat &r : plain) {
        samples += r.reqStepMs.size();
        setups.push_back(r.setupS);
        setupsCal.push_back(r.setupCalS);
    }
    auto across = [&](auto f) { return medianOf(plain, f); };
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    std::map<std::string, double> e2e, host;
    e2e["sim_mips_cal"] =
        across([](const Repeat &r) { return r.instrPerCalIter(); });
    e2e["req_per_s_cal"] = across(
        [](const Repeat &r) { return r.rep.executed / r.runCalS; });
    e2e["req_host_ms_p50_cal"] = across(
        [](const Repeat &r) { return percentileOf(r.reqStepCalMs, 50); });
    e2e["req_host_ms_p99_cal"] = across(
        [](const Repeat &r) { return percentileOf(r.reqStepCalMs, 99); });
    e2e["setup_s"] = median(setupsCal);
    e2e["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    e2e["sim_ipc"] = static_cast<double>(instructions) /
        static_cast<double>(endTicks);
    e2e["goodput"] = static_cast<double>(served) * 1e6 /
        static_cast<double>(endTicks);
    host["host.sim_mips"] = across([](const Repeat &r) { return r.mips(); });
    host["host.req_per_s"] =
        across([](const Repeat &r) { return r.rep.executed / r.runS; });
    host["host.req_ms_p50"] = across(
        [](const Repeat &r) { return percentileOf(r.reqStepMs, 50); });
    host["host.req_ms_p99"] = across(
        [](const Repeat &r) { return percentileOf(r.reqStepMs, 99); });
    host["host.setup_s"] = median(setups);
    host["host.calib_mips"] =
        across([](const Repeat &r) { return r.calibMips; });

    // ------------------------------------------------ per layer
    // One run of the workload at --seed: counts from the first traced
    // repeat, host times as the median over traced repeats.
    std::map<std::string, double> layers;
    if (trace) {
        const Repeat &t = traced.front();
        auto hostS = [&](double Repeat::*field) {
            return medianOf(traced, [&](const Repeat &r) { return r.*field; });
        };
        layers["core.steps"] = t.steps;
        layers["core.step_s"] = hostS(&Repeat::stepS);
        layers["core.recovery_steps"] = t.recoverySteps;
        layers["core.recovery_step_s"] = hostS(&Repeat::recoveryStepS);
        layers["cpu.instructions"] = t.instructions;
        layers["cpu.execute_self_s"] =
            medianOf(traced, [](const Repeat &r) { return r.stepS - r.childS; });
        layers["cpu.mem_stall_cycles"] = t.stats.sum("core/mem_stall_cycles");
        layers["cpu.sync_stall_cycles"] =
            t.stats.sum("core/sync_stall_cycles");
        for (const char *c : {"l1i", "l1d", "l2", "itlb", "dtlb"}) {
            layers[std::string("mem.") + c + "_misses"] =
                t.stats.sum(std::string("memsys/") + c + "/misses");
        }
        layers["mem.fifo_stalls"] = t.stats.sum("trace_fifo/stalls");
        layers["mem.fifo_stall_cycles"] =
            t.stats.sum("trace_fifo/stall_cycles");
        layers["checkpoint.on_store.calls"] = t.storeCalls;
        layers["checkpoint.on_store.s"] = hostS(&Repeat::storeS);
        layers["checkpoint.on_load.calls"] = t.loadCalls;
        layers["checkpoint.on_load.s"] = hostS(&Repeat::loadS);
        for (const char *k : {"lines_backed_up", "rollbacks",
                              "macro_restores", "domain_rewinds"})
            layers[std::string("checkpoint.") + k] =
                t.digest.at(std::string("stat.") + k);
        layers["os.syscall.calls"] = t.syscallCalls;
        layers["os.syscall.s"] = hostS(&Repeat::syscallS);
        layers["monitor.submit.calls"] = t.submitCalls;
        layers["monitor.submit.s"] = hostS(&Repeat::submitS);
        layers["monitor.drain.calls"] = t.drainCalls;
        layers["resilience.sheds"] = t.rep.shedTotal();
        layers["resilience.retries"] = t.rep.retries;
        for (std::size_t e = 0; e < obs::eventKindCount; ++e) {
            layers[std::string("obs.events.") +
                   obs::eventKindName(static_cast<obs::EventKind>(e))] =
                t.events[e];
        }
        layers["obs.events_dropped"] = t.eventsDropped;
        // Traced over untraced at the same seed, both calibrated; the
        // two alternate.
        std::vector<Repeat> plainSeed;
        for (const Repeat &r : plain) {
            if (r.k == 0)
                plainSeed.push_back(r);
        }
        auto perIter = [](const Repeat &r) { return r.instrPerCalIter(); };
        layers["trace_overhead"] =
            medianOf(traced, perIter) / medianOf(plainSeed, perIter);
        layers["trace.sim_mips"] =
            medianOf(traced, [](const Repeat &r) { return r.mips(); });
        for (const auto &[k, v] : measureLayers(*w, seed))
            layers[k] = v;
    }

    // ------------------------------------------------ report
    std::uint64_t failed = 0;
    std::string failedNames;
    for (const Check &c : checks) {
        if (!c.ok) {
            ++failed;
            failedNames += (failedNames.empty() ? "\"" : ", \"") + c.name +
                "\"";
        }
    }
    std::string digests;
    for (const Repeat *r : first)
        digests += (digests.empty() ? "" : ", ") + jsonOf(r->digest);
    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) < 1)
        load[0] = -1;
    std::cout << "workload " << w->name << " seed " << seed << ": "
              << plain.size() << " untraced + " << traced.size()
              << " traced repeats over " << subSeeds << " sub-seeds, "
              << samples << " request-step samples, " << checks.size()
              << " checks, " << failed << " failed\n";
    JsonObject o;
    o.str("workload", w->name)
        .add("seed", seed)
        .str("build_type", buildType)
        .add("nproc", sysconf(_SC_NPROCESSORS_ONLN))
        .add("loadavg", load[0])
        .add("calib_mips", cal.mipsSince(0))
        .add("repeats", plain.size())
        .add("traced_repeats", traced.size())
        .add("req_samples", samples)
        .add("checks", checks.size())
        .add("failed", failed)
        .raw("failed_checks", "[" + failedNames + "]")
        .raw("digests", "[" + digests + "]")
        .raw("end_to_end", jsonOf(e2e))
        .raw("host", jsonOf(host))
        .raw("per_layer", jsonOf(layers));
    std::cout << o.text() << "\n";
    return 0;
}
