/**
 * @file
 * Tests for the reporting layer: table/bar rendering and the
 * experiment runner's aggregate bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "report/experiment.hh"
#include "report/report.hh"
#include "sim/log.hh"
#include "workload/apps.hh"

namespace pimdsm
{
namespace
{

TEST(TablePrinterTest, AlignsColumnsAndFormatsNumbers)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", TablePrinter::num(1.2345)});
    t.addRow({"a-much-longer-name", TablePrinter::pct(0.5)});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("| alpha"), std::string::npos);
    EXPECT_NE(s.find("1.23"), std::string::npos);
    EXPECT_NE(s.find("50.0%"), std::string::npos);
    // Every rendered line has the same width.
    std::istringstream in(s);
    std::string line;
    std::size_t width = 0;
    while (std::getline(in, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width);
    }
}

TEST(TablePrinterTest, NumPrecision)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 0), "3");
    EXPECT_EQ(TablePrinter::num(3.14159, 3), "3.142");
    EXPECT_EQ(TablePrinter::pct(0.1234, 2), "12.34%");
}

TEST(PrintBarsTest, RendersSegmentsProportionally)
{
    std::ostringstream os;
    printBars(os, "demo", {"A", "B"},
              {{"barhalf", {0.25, 0.25}}, {"barfull", {0.5, 0.5}}});
    const std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("A"), std::string::npos);
    EXPECT_NE(s.find("0.50"), std::string::npos);
    EXPECT_NE(s.find("1.00"), std::string::npos);
    // The full bar draws about twice the glyphs of the half bar.
    const auto count = [&](const std::string &row) {
        const auto pos = s.find(row);
        const auto eol = s.find('\n', pos);
        const std::string line = s.substr(pos, eol - pos);
        return std::count(line.begin(), line.end(), '#') +
               std::count(line.begin(), line.end(), '=');
    };
    EXPECT_NEAR(static_cast<double>(count("barfull")),
                2.0 * count("barhalf"), 3.0);
}

TEST(ExperimentRunner, AggregatesAreConsistent)
{
    auto wl = makeWorkload("swim", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Agg;
    spec.threads = 4;
    spec.pressure = 0.5;
    const RunResult r = runWorkload(buildConfig(*wl, spec), *wl);

    // Phase windows tile the run.
    Tick prev_end = 0;
    for (const auto &p : r.phases) {
        EXPECT_GE(p.startTick, prev_end);
        EXPECT_GE(p.endTick, p.startTick);
        prev_end = p.endTick;
    }
    EXPECT_EQ(r.totalTicks, r.phases.back().endTick);

    // Per-thread time splits are bounded by 4 threads x wall clock.
    EXPECT_LE(r.time.total(), 4 * r.totalTicks + 4);
    EXPECT_GE(r.memoryFraction(), 0.0);
    EXPECT_LE(r.memoryFraction(), 1.0);

    // Read categories add up.
    EXPECT_EQ(r.reads.totalAllCount(),
              r.reads.count[0] + r.reads.count[1] + r.reads.count[2] +
                  r.reads.count[3] + r.reads.count[4]);
    EXPECT_GT(r.instructions, 0u);
}

TEST(ExperimentRunner, DeterministicAcrossRuns)
{
    auto wl = makeWorkload("radix", 1);
    BuildSpec spec;
    spec.arch = ArchKind::Coma;
    spec.threads = 4;
    spec.pressure = 0.5;
    const RunResult a = runWorkload(buildConfig(*wl, spec), *wl);
    const RunResult b = runWorkload(buildConfig(*wl, spec), *wl);
    EXPECT_EQ(a.totalTicks, b.totalTicks);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.reads.totalAllLatency(), b.reads.totalAllLatency());
}

/** Every figure-facing aggregate of two runs is identical. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.totalTicks, b.totalTicks);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.census.dirtyInPNode, b.census.dirtyInPNode);
    EXPECT_EQ(a.census.sharedInPNode, b.census.sharedInPNode);
    EXPECT_EQ(a.census.dNodeOnly, b.census.dNodeOnly);
    EXPECT_EQ(a.census.dNodeCapacityLines, b.census.dNodeCapacityLines);
    EXPECT_EQ(a.census.dNodeUsedLines, b.census.dNodeUsedLines);
    for (int c = 0; c < ReadLatencyStats::kNum; ++c) {
        EXPECT_EQ(a.reads.count[c], b.reads.count[c]);
        EXPECT_EQ(a.reads.totalLatency[c], b.reads.totalLatency[c]);
    }
}

ExperimentPoint
point(const Workload &wl, ArchKind arch, double pressure, int d_ratio)
{
    BuildSpec spec;
    spec.arch = arch;
    spec.threads = 8; // the quick-sweep size
    spec.pressure = pressure;
    spec.dRatio = d_ratio;
    return {&wl, buildConfig(wl, spec), {}};
}

TEST(RunPoints, MatchesSerialRunsInSubmissionOrder)
{
    auto fft = makeWorkload("fft");
    auto dbase = makeWorkload("dbase");
    std::vector<ExperimentPoint> points = {
        point(*fft, ArchKind::Numa, 0.75, 1),
        point(*dbase, ArchKind::Coma, 0.25, 1),
        point(*fft, ArchKind::Agg, 0.75, 2),
        point(*dbase, ArchKind::Agg, 0.25, 4),
    };
    // Point 4 is point 2's machine edited after buildConfig, as Figure
    // 9 does: P-node memory held at a 2-P-node machine's share.
    points.push_back(points[2]);
    points.back().cfg.pNodeMemBytes *= 4;

    std::vector<RunResult> serial;
    for (const auto &p : points)
        serial.push_back(runWorkload(p.cfg, *p.workload, p.opts));
    // The edit reached the machine.
    EXPECT_NE(serial[4].totalTicks, serial[2].totalTicks);

    for (int workers : {1, 4}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const std::vector<RunResult> pooled = runPoints(points, workers);
        ASSERT_EQ(pooled.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("point " + std::to_string(i));
            expectSameResult(pooled[i], serial[i]);
        }
    }
}

TEST(RunPoints, LowestFailingPointsErrorReachesTheCaller)
{
    auto fft = makeWorkload("fft");
    std::vector<ExperimentPoint> points(
        5, point(*fft, ArchKind::Agg, 0.25, 2));
    // Point 1 panics on its event budget; point 3's config is edited
    // into one the Machine rejects when it validates it, so it fails
    // first on the wall clock. The caller must still see point 1's
    // error — the one a serial loop hits.
    points[1].opts.maxEventsPerPhase = 100;
    points[3].cfg.dNodeMemBytes = 0;
    EXPECT_THROW(runPoints(points, 4), PanicError);
    EXPECT_THROW(runPoints({points[3]}, 4), FatalError);
    EXPECT_TRUE(runPoints({}, 4).empty());
}

} // namespace
} // namespace pimdsm
