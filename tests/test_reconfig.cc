/**
 * @file
 * Reconfiguration tests: role flips, page/directory migration, state
 * preservation across a reconfiguration, and the overhead model.
 */

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "machine/reconfig.hh"
#include "report/experiment.hh"
#include "workload/workload.hh"
#include "sim/log.hh"

namespace pimdsm
{
namespace
{

MachineConfig
reconfCfg(int p, int d)
{
    MachineConfig cfg = makeBaseConfig(ArchKind::Agg);
    cfg.numPNodes = p;
    cfg.numThreads = p;
    cfg.numDNodes = d;
    cfg.pNodeMemBytes = 64 * 1024;
    cfg.dNodeMemBytes = 64 * 1024;
    cfg.l1 = CacheParams{1024, 1, 64, 3};
    cfg.l2 = CacheParams{4096, 1, 64, 6};
    cfg.reconfigurable = true;
    fitMesh(cfg.net, cfg.totalNodes());
    cfg.validate();
    return cfg;
}

void
doAccess(Machine &m, NodeId n, Addr a, bool write,
         ReadService *svc = nullptr)
{
    bool done = false;
    m.compute(n)->access(a, write, [&](Tick, ReadService s) {
        done = true;
        if (svc)
            *svc = s;
    });
    m.eq().run();
    ASSERT_TRUE(done);
}

TEST(Reconfig, RolesFlipAndPagesMigrate)
{
    Machine m(reconfCfg(2, 2));
    const Addr base = 1ull << 20;
    // Touch 4 pages: round-robin homes over D-nodes 2 and 3.
    for (int i = 0; i < 4; ++i)
        doAccess(m, 0, base + i * 4096, false);
    ASSERT_EQ(m.pageMap().pagesHomedAt(2).size(), 2u);
    ASSERT_EQ(m.pageMap().pagesHomedAt(3).size(), 2u);

    const ReconfigResult rr = applyReconfig(m, 3, 1);
    EXPECT_EQ(m.role(2), NodeRole::Compute);
    EXPECT_EQ(m.role(3), NodeRole::Directory);
    EXPECT_EQ(rr.pagesMoved, 2u); // node 2's pages moved to node 3
    EXPECT_GT(rr.linesMigrated, 0u);
    EXPECT_GT(rr.cost, m.config().reconfig.baseCost);
    EXPECT_EQ(m.pageMap().pagesHomedAt(2).size(), 0u);
    EXPECT_EQ(m.pageMap().pagesHomedAt(3).size(), 4u);
    m.checkInvariants();
}

TEST(Reconfig, DataSurvivesMigration)
{
    Machine m(reconfCfg(2, 2));
    const Addr base = 1ull << 20;
    // Write lines (dirty at P-nodes) and read others (shared).
    for (int i = 0; i < 8; ++i)
        doAccess(m, i % 2, base + i * 4096, i % 3 == 0);
    const Version v3 = m.latestVersion(base + 3 * 4096);

    applyReconfig(m, 3, 1);
    m.checkInvariants();

    // Every line must still be readable, with fresh versions (the
    // read-version check inside the protocol enforces freshness).
    for (int i = 0; i < 8; ++i) {
        ReadService svc;
        doAccess(m, 1, base + i * 4096, false, &svc);
    }
    EXPECT_EQ(m.latestVersion(base + 3 * 4096), v3);
    m.checkInvariants();
}

TEST(Reconfig, PToDFlushWritesDirtyLinesHome)
{
    Machine m(reconfCfg(2, 2));
    const Addr base = 1ull << 20;
    doAccess(m, 1, base, true); // dirty at node 1
    // Node 1 becomes a D-node: its dirty line must land at its home.
    applyReconfig(m, 1, 3);
    EXPECT_EQ(m.role(1), NodeRole::Directory);

    bool found = false;
    for (NodeId d : m.directoryNodes()) {
        m.home(d)->directory().forEach([&](Addr a, const DirEntry &e) {
            if (a == blockAlign(base, 128)) {
                found = true;
                EXPECT_EQ(e.state, DirEntry::State::Uncached);
                EXPECT_TRUE(e.homeHasData);
            }
        });
    }
    EXPECT_TRUE(found);
    // And node 0 can still read it.
    doAccess(m, 0, base, false);
    m.checkInvariants();
}

TEST(Reconfig, CostModelComponents)
{
    Machine m(reconfCfg(2, 2));
    const Addr base = 1ull << 20;
    for (int i = 0; i < 20; ++i)
        doAccess(m, 0, base + i * 4096, true);
    const ReconfigResult rr = applyReconfig(m, 3, 1);
    const auto &rc = m.config().reconfig;
    EXPECT_EQ(rr.cost, rc.baseCost + rc.perLineCost * rr.linesMigrated +
                           rc.perDirEntryCost * rr.dirEntriesMoved +
                           rc.perTenPagesCost *
                               ((rr.pagesMoved + 9) / 10) +
                           rc.tlbUpdateCost * 3);
}

TEST(Reconfig, RejectsBadShapes)
{
    Machine m(reconfCfg(2, 2));
    EXPECT_THROW(applyReconfig(m, 4, 1), FatalError); // sum != nodes
    EXPECT_THROW(applyReconfig(m, 4, 0), FatalError); // no D-nodes

    MachineConfig cfg = reconfCfg(2, 2);
    cfg.reconfigurable = false;
    Machine frozen(cfg);
    EXPECT_THROW(applyReconfig(frozen, 3, 1), FatalError);
}

TEST(Reconfig, AutoPolicyResizesOnUtilization)
{
    // The OS-initiated policy (Section 2.3): dbase's phases have very
    // different D-node demands, so the auto policy must reconfigure
    // at least once and the run must stay coherent.
    auto wl = makeWorkload("dbase", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 8;
    spec.dNodes = 8;
    spec.pressure = 0.75;
    spec.reconfigurable = true;

    RunOptions opts;
    opts.autoReconfig = true;
    opts.checkInvariants = true;
    const RunResult r = runWorkload(buildConfig(*wl, spec), *wl, opts);
    EXPECT_GT(r.totalTicks, 0u);
    EXPECT_GE(r.autoReconfigs, 1);
    EXPECT_GT(r.reconfigTicks, 0u);
}

TEST(Reconfig, AutoPolicyIgnoredWhenNotReconfigurable)
{
    auto wl = makeWorkload("swim", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.pressure = 0.5;
    spec.reconfigurable = false;

    RunOptions opts;
    opts.autoReconfig = true;
    const RunResult r = runWorkload(buildConfig(*wl, spec), *wl, opts);
    EXPECT_EQ(r.autoReconfigs, 0);
    EXPECT_EQ(r.reconfigTicks, 0u);
}

TEST(Reconfig, RepeatedFlipFlopsStayCoherent)
{
    Machine m(reconfCfg(2, 2));
    const Addr base = 1ull << 20;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 6; ++i)
            doAccess(m, i % 2, base + i * 4096, true);
        applyReconfig(m, 3, 1);
        for (int i = 0; i < 6; ++i)
            doAccess(m, i % 3, base + i * 4096, false);
        applyReconfig(m, 2, 2);
        m.checkInvariants();
    }
}

} // namespace
} // namespace pimdsm
