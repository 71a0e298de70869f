/**
 * @file
 * End-to-end integration: run every workload on every architecture on
 * a small machine through the experiment runner, with invariant
 * checking; verify the headline trends hold on a medium run.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "report/experiment.hh"
#include "workload/apps.hh"

namespace pimdsm
{
namespace
{

using Combo = std::tuple<std::string, ArchKind>;

class EveryAppEveryArch : public ::testing::TestWithParam<Combo>
{
};

TEST_P(EveryAppEveryArch, RunsToCompletionCoherently)
{
    const auto &[name, arch] = GetParam();
    auto wl = makeWorkload(name, 1);

    BuildSpec spec;
    spec.arch = arch;
    spec.threads = 4;
    spec.pressure = 0.75;
    spec.dRatio = 1;

    RunOptions opts;
    opts.checkInvariants = true;

    const RunResult r = runWorkload(buildConfig(*wl, spec), *wl, opts);
    EXPECT_GT(r.totalTicks, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.time.busy, 0u);
    EXPECT_GT(r.reads.totalAllCount(), 0u);
    EXPECT_EQ(static_cast<int>(r.phases.size()), wl->numPhases());
    for (const auto &p : r.phases)
        EXPECT_GE(p.endTick, p.startTick);
    if (arch != ArchKind::Coma) {
        // AGG/NUMA homes back lines; census must see the footprint.
        EXPECT_GT(r.census.totalLines(), 0u);
    }
}

std::string
comboName(const ::testing::TestParamInfo<Combo> &info)
{
    return std::get<0>(info.param) + "_" +
           archName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EveryAppEveryArch,
    ::testing::Combine(::testing::ValuesIn(paperWorkloadNames()),
                       ::testing::Values(ArchKind::Agg, ArchKind::Numa,
                                         ArchKind::Coma)),
    comboName);

TEST(Trends, AggAndComaBeatNumaOnSharingHeavyWorkload)
{
    // Barnes at 8 threads: the widely-shared tree is re-read every
    // iteration; the memory-as-cache organizations replicate it into
    // local memory while NUMA re-fetches it remotely (the paper's
    // Figure 6 first-order effect).
    auto wl = makeWorkload("barnes", 1);
    BuildSpec spec;
    spec.threads = 8;
    spec.pressure = 0.25;

    spec.arch = ArchKind::Numa;
    const auto numa = runWorkload(buildConfig(*wl, spec), *wl);
    spec.arch = ArchKind::Agg;
    const auto agg = runWorkload(buildConfig(*wl, spec), *wl);
    spec.arch = ArchKind::Coma;
    const auto coma = runWorkload(buildConfig(*wl, spec), *wl);

    EXPECT_LT(agg.totalTicks, numa.totalTicks);
    EXPECT_LT(coma.totalTicks, numa.totalTicks);
    // COMA's attraction memories are twice an AGG P-node's, so AGG is
    // "a bit slower" than COMA (paper Section 4.1) but close.
    EXPECT_LT(agg.totalTicks, 2 * coma.totalTicks);

    // Figure 7's mechanism: NUMA serves far more reads remotely.
    const auto remote = [](const RunResult &r) {
        return r.reads.count[static_cast<int>(ReadService::Hop2)] +
               r.reads.count[static_cast<int>(ReadService::Hop3)];
    };
    EXPECT_GT(remote(numa), remote(agg));
}

TEST(Trends, FewerDNodesOnlyModestlySlower)
{
    auto wl = makeWorkload("barnes", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 8;
    // At low pressure the D-nodes serve mostly coherence misses, the
    // regime where the paper reports only ~12% slowdown for 1/4AGG.
    spec.pressure = 0.25;

    spec.dRatio = 1;
    const auto full = runWorkload(buildConfig(*wl, spec), *wl);
    spec.dRatio = 4;
    const auto quarter = runWorkload(buildConfig(*wl, spec), *wl);

    EXPECT_GE(quarter.totalTicks, full.totalTicks * 95 / 100);
    // The paper reports ~12% on 32-thread machines; our scaled runs
    // are colder (less reuse per line), so allow generous slack — the
    // shape that matters is "slower, but far from 4x slower".
    EXPECT_LT(quarter.totalTicks, full.totalTicks * 2);
}

TEST(Trends, LowerPressureLeavesDMemoryUnused)
{
    auto wl = makeWorkload("radix", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;

    spec.pressure = 0.25;
    const auto low = runWorkload(buildConfig(*wl, spec), *wl);
    spec.pressure = 0.75;
    const auto high = runWorkload(buildConfig(*wl, spec), *wl);

    const auto unused = [](const RunResult &r) {
        const auto cap = r.census.dNodeCapacityLines;
        const auto used = r.census.dNodeUsedLines;
        return cap > used ? static_cast<double>(cap - used) / cap : 0.0;
    };
    EXPECT_GT(unused(low), unused(high));
}

TEST(Trends, DbaseCimOffloadHelpsOnAgg)
{
    DbaseWorkload plain(1, false);
    DbaseWorkload cim(1, true);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.pressure = 0.75;

    const auto t_plain =
        runWorkload(buildConfig(plain, spec), plain).totalTicks;
    const auto t_cim = runWorkload(buildConfig(cim, spec), cim).totalTicks;
    EXPECT_LT(t_cim, t_plain);
}

TEST(Runner, DynamicReconfigurationMidRun)
{
    DbaseWorkload wl(1, false);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.dNodes = 4;
    spec.reconfigurable = true;
    spec.pressure = 0.75;

    RunOptions opts;
    opts.checkInvariants = true;
    // Hash phase on 4P&4D, join phase on 6P&2D.
    opts.reconfig.push_back(ReconfigStep{2, 6, 2});

    const auto r = runWorkload(buildConfig(wl, spec), wl, opts);
    EXPECT_GT(r.reconfigTicks, 0u);
    EXPECT_EQ(r.phases.size(), 3u);
}

} // namespace
} // namespace pimdsm
