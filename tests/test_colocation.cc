/** @file Tests for CR3/pid-tagged co-located services sharing one
 * resurrectee core, and for open-loop arrival timing. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "check/checker.hh"
#include "core/system.hh"
#include "obs/trace_log.hh"
#include "sim/logging.hh"
#include "test_util.hh"

using namespace indra;
using core::IndraSystem;
using core::NodeConfig;
using net::AttackKind;
using net::RequestStatus;

namespace
{

SystemConfig
coConfig()
{
    SystemConfig cfg = testutil::smallConfig();
    cfg.physMemBytes = 128ULL * 1024 * 1024;
    return cfg;
}

net::DaemonProfile
shortDaemon(const std::string &name, std::uint64_t instr = 12000)
{
    net::DaemonProfile p = net::daemonByName(name);
    p.instrPerRequest = instr;
    return p;
}

net::ServiceRequest
request(std::uint64_t seq, AttackKind kind = AttackKind::None)
{
    net::ServiceRequest r;
    r.seq = seq;
    r.attack = kind;
    return r;
}

std::map<Vpn, std::vector<std::uint8_t>>
imageOf(IndraSystem &sys, Pid pid)
{
    std::map<Vpn, std::vector<std::uint8_t>> image;
    os::Process &proc = sys.kernel().process(pid);
    for (Vpn vpn : proc.space->mappedPages())
        image[vpn] = sys.physMem().snapshotFrame(
            proc.space->pageInfo(vpn).pfn);
    return image;
}

} // anonymous namespace

TEST(Colocation, TwoServicesTimeShareOneCore)
{
    setLogVerbosity(0);
    IndraSystem sys(NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd"));
    std::size_t dns = sys.deployCoService(slot, shortDaemon("bind"));

    // Interleave requests across the two processes on one core.
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
        EXPECT_EQ(sys.processRequest(slot, request(seq)).status,
                  RequestStatus::Served);
        EXPECT_EQ(
            sys.processCoRequest(slot, dns, request(seq)).status,
            RequestStatus::Served);
    }
    // The single monitor raised no false alarm on either process.
    EXPECT_EQ(sys.slot(slot).monitor->violationsDetected(), 0u);
}

TEST(Colocation, AttackOnOneProcessLeavesTheOtherIntact)
{
    setLogVerbosity(0);
    IndraSystem sys(NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd"));
    std::size_t dns = sys.deployCoService(slot, shortDaemon("bind"));
    Pid web_pid = sys.slot(slot).pid;

    sys.processRequest(slot, request(1));
    sys.processCoRequest(slot, dns, request(1));

    auto web_before = imageOf(sys, web_pid);
    auto dns_out =
        sys.processCoRequest(slot, dns,
                             request(2, AttackKind::StackSmash));
    EXPECT_EQ(dns_out.status, RequestStatus::DetectedRecovered);

    // The web process's memory never changed; the DNS process's
    // memory is byte-exactly revived.
    EXPECT_EQ(web_before, imageOf(sys, web_pid));
    sys.slot(slot).coServices[dns]->policy->drainRollback(0);
    EXPECT_EQ(sys.processRequest(slot, request(2)).status,
              RequestStatus::Served);
    EXPECT_EQ(sys.processCoRequest(slot, dns, request(3)).status,
              RequestStatus::Served);
}

TEST(Colocation, MonitorMetadataIsPerProcess)
{
    setLogVerbosity(0);
    IndraSystem sys(NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd"));
    std::size_t co = sys.deployCoService(slot, shortDaemon("imap"));
    Pid co_pid = sys.slot(slot).coServices[co]->pid;

    // A record claiming the co-process executed from the MAIN
    // process's code page must still be validated per-pid — both
    // programs share the virtual code layout, so this passes; what
    // must fail is a page neither registered.
    cpu::TraceRecord rec;
    rec.kind = cpu::TraceKind::CodeOrigin;
    rec.pid = co_pid;
    rec.target = 0x7ffe0000;  // stack page
    sys.slot(slot).monitor->submit(rec, 0);
    EXPECT_TRUE(sys.slot(slot).monitor->pendingDetection().has_value());
}

TEST(Colocation, ContextSwitchChargedBetweenProcesses)
{
    setLogVerbosity(0);
    IndraSystem sys(NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd"));
    std::size_t co = sys.deployCoService(slot, shortDaemon("bind"));

    sys.processRequest(slot, request(1));
    Tick t0 = sys.slot(slot).core->curTick();
    // Switching to the co-process must advance time before its
    // request even starts.
    auto out = sys.processCoRequest(slot, co, request(1));
    EXPECT_GT(out.startTick, t0);
}

TEST(Colocation, TraceLogWiresCoServiceBeforeAndAfterDeploy)
{
    if (!obs::tracingCompiledIn())
        GTEST_SKIP() << "built with INDRA_OBS_TRACING=OFF";
    setLogVerbosity(0);
    for (bool attach_first : {true, false}) {
        SCOPED_TRACE(attach_first ? "attached before deployCoService"
                                  : "attached after deployCoService");
        SystemConfig cfg = coConfig();
        cfg.macroCheckpointPeriod = 1;  // every served request captures
        IndraSystem sys(NodeConfig{cfg});
        obs::TraceLog log;
        sys.boot();
        std::size_t slot = sys.deployService(shortDaemon("httpd"));
        if (attach_first)
            sys.attachTraceLog(&log);
        std::size_t co = sys.deployCoService(slot, shortDaemon("bind"));
        if (!attach_first)
            sys.attachTraceLog(&log);
        log.clear();

        // Only the co-service runs: a served request (its macro
        // engine captures) and a detected attack (its policy arms a
        // rollback, its recovery ladder runs the micro rung).
        EXPECT_EQ(sys.processCoRequest(slot, co, request(1)).status,
                  RequestStatus::Served);
        EXPECT_EQ(sys.processCoRequest(slot, co,
                                       request(2, AttackKind::StackSmash))
                      .status,
                  RequestStatus::DetectedRecovered);

        auto host = static_cast<std::uint32_t>(sys.slot(slot).coreId);
        for (obs::EventKind kind :
             {obs::EventKind::MacroCapture, obs::EventKind::RollbackArmed,
              obs::EventKind::MicroRecovery}) {
            SCOPED_TRACE(obs::eventKindName(kind));
            EXPECT_GE(log.countOf(kind), 1u);
        }
        for (std::size_t i = 0; i < log.size(); ++i)
            EXPECT_EQ(log.at(i).source, host);
    }
}

TEST(Colocation, AppOfResolvesMainAndCoPids)
{
    setLogVerbosity(0);
    IndraSystem sys(NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd"));
    std::size_t co = sys.deployCoService(slot, shortDaemon("bind"));
    core::ServiceSlot &s = sys.slot(slot);
    core::Service &co_svc = *s.coServices[co];

    EXPECT_EQ(sys.appOf(s.pid), s.app.get());
    EXPECT_EQ(sys.appOf(co_svc.pid), co_svc.app.get());
    EXPECT_EQ(sys.appOf(co_svc.pid + 100), nullptr);

    core::ServiceLookup found = sys.findService(co_svc.pid);
    EXPECT_EQ(found.slot, &s);
    EXPECT_EQ(found.service, &co_svc);
    EXPECT_EQ(sys.findService(co_svc.pid + 100).slot, nullptr);
}

#if INDRA_CHECK_ENABLED
TEST(Colocation, CheckerResolvesCoServiceToHostGuard)
{
    setLogVerbosity(0);
    resilience::ResilienceConfig rc;
    rc.queueBound = 6;
    IndraSystem sys(NodeConfig{coConfig(), {}, rc});
    check::SystemChecker checker(sys);
    sys.attachChecker(&checker);
    // A probe invariant that records the guard each verdict sees.
    std::vector<const resilience::ServiceGuard *> seen;
    checker.registry().add(
        check::InvariantId::HealthTransitionLegal,
        [&seen](const check::CheckContext &ctx, std::string &) {
            seen.push_back(ctx.guard);
            return true;
        });
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd"));
    std::size_t co = sys.deployCoService(slot, shortDaemon("bind"));

    sys.processCoRequest(slot, co, request(1));
    ASSERT_EQ(seen.size(), 1u);
    ASSERT_NE(sys.slot(slot).guard, nullptr);
    EXPECT_EQ(seen[0], sys.slot(slot).guard.get());
    EXPECT_TRUE(checker.ok());
}
#endif // INDRA_CHECK_ENABLED

TEST(OpenLoop, ResponseIncludesQueueingBehindRecovery)
{
    setLogVerbosity(0);
    IndraSystem sys(NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd", 20000));

    // Closed-loop service time of a benign request, for sizing.
    auto warm = sys.runScript(net::ClientScript::benign(2), slot);
    Cycles service = warm[1].responseTime();

    // Arrivals at ~80% utilization with a DoS in the middle: the
    // benign request right after the attack queues behind recovery.
    auto script = net::ClientScript::benign(6);
    script[2].attack = AttackKind::DosFlood;
    for (auto &r : script)
        r.seq += 2;
    auto outcomes = sys.runOpenLoop(slot, script,
                                    (service * 5) / 4,
                                    sys.slot(slot).core->curTick());
    for (const auto &o : outcomes) {
        if (o.attack == AttackKind::None) {
            EXPECT_GE(o.responseTime(), 1u);
        }
    }
    // The run is causally ordered and nothing was lost.
    auto report = net::AvailabilityReport::build(outcomes);
    EXPECT_EQ(report.lost, 0u);
}

TEST(OpenLoop, SlowArrivalsMeanNoQueueing)
{
    setLogVerbosity(0);
    IndraSystem sys(NodeConfig{coConfig()});
    sys.boot();
    std::size_t slot = sys.deployService(shortDaemon("httpd", 20000));
    auto warm = sys.runScript(net::ClientScript::benign(2), slot);
    Cycles service = warm[1].responseTime();

    auto script = net::ClientScript::benign(4);
    for (auto &r : script)
        r.seq += 2;
    auto outcomes = sys.runOpenLoop(slot, script, service * 3,
                                    sys.slot(slot).core->curTick());
    // With arrivals far apart, each response is just its own service
    // time (within the noise of request-length variation).
    for (const auto &o : outcomes)
        EXPECT_LT(o.responseTime(), service * 2);
}
