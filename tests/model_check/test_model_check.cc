/**
 * @file
 * Protocol model checking: exhaustively explore message-delivery
 * orderings (plus single injected faults) of tiny scripted workloads,
 * asserting coherence, quiescence, and the sequential version
 * reference on every schedule, and show that each seeded protocol
 * mutation makes some schedule fail (see src/check/explorer.hh).
 */

#include <gtest/gtest.h>

#include "check/explorer.hh"
#include "sim/log.hh"

namespace pimdsm
{
namespace
{

constexpr Addr kLine = tinyCheckLine(0);
constexpr Addr kOtherLine = tinyCheckLine(1);

ExplorerConfig
twoWriterConflict(ArchKind arch, int p, int d)
{
    ExplorerConfig ec;
    ec.machine = tinyCheckMachine(arch, p, d);
    ec.accesses = {
        {0, kLine, true},
        {1, kLine, true},
        {0, kLine, false},
        {1, kLine, false},
    };
    return ec;
}

/** Every counter of a finished exploration. The trees are
 *  deterministic, so a harness or protocol change that reshapes one
 *  shows here instead of passing the loose lower bounds. */
struct Tree
{
    std::uint64_t schedules, decisions, visited, reExecuted,
        faultSchedules;
};

void
expectTree(const ExplorerResult &res, const Tree &t)
{
    EXPECT_FALSE(res.truncated);
    EXPECT_EQ(res.schedules, t.schedules);
    EXPECT_EQ(res.decisions, t.decisions);
    EXPECT_EQ(res.visited, t.visited);
    EXPECT_EQ(res.reExecuted, t.reExecuted);
    EXPECT_EQ(res.faultSchedules, t.faultSchedules);
}

// ------------------------------------------- pure delivery reordering

TEST(ModelCheck, AggTwoWritersEveryOrderingIsCoherent)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Agg, 2, 1);
    ec.maxSchedules = 20000;
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_GE(res.schedules, 2u);
    EXPECT_GT(res.decisions, res.schedules);
    EXPECT_EQ(res.faultSchedules, 0u);
    // Stateless-DFS accounting: every decision is either a first visit
    // or a prefix re-execution, and with > 1 schedule the backtrack
    // replay cost must show up.
    EXPECT_EQ(res.decisions, res.visited + res.reExecuted);
    EXPECT_GT(res.visited, 0u);
    EXPECT_GT(res.reExecuted, 0u);
    expectTree(res, {4, 24, 19, 5, 0});
}

TEST(ModelCheck, NumaTwoWritersEveryOrderingIsCoherent)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Numa, 2, 0);
    ec.maxSchedules = 20000;
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_GE(res.schedules, 2u);
    expectTree(res, {4, 24, 19, 5, 0});
}

TEST(ModelCheck, ComaTwoWritersEveryOrderingIsCoherent)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Coma, 2, 0);
    ec.maxSchedules = 20000;
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_GE(res.schedules, 2u);
    expectTree(res, {4, 24, 19, 5, 0});
}

TEST(ModelCheck, FalseSharingTwoLinesStaysCoherent)
{
    // Two writers on two lines, then a cross-line read: the whole tree
    // (adding the mirror read {1 R A} takes it to 42,384 schedules).
    ExplorerConfig ec;
    ec.machine = tinyCheckMachine(ArchKind::Agg, 2, 1);
    ec.accesses = {
        {0, kLine, true},
        {1, kOtherLine, true},
        {0, kOtherLine, false},
    };
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    expectTree(res, {127, 1143, 329, 814, 0});
}

// ----------------------------------------- one drop or one duplicate

TEST(ModelCheck, AggDropDupExploresOverAThousandSchedules)
{
    // The acceptance bar from the issue: >= 1000 distinct schedules on
    // a two-requester single-line conflict, zero violations. Budget 2
    // explores fault *pairs* (e.g. a dropped reply plus a dropped
    // retry), which is where the schedule count comes from: home-side
    // serialization keeps pure delivery reorderings of one line small.
    ExplorerConfig ec = twoWriterConflict(ArchKind::Agg, 2, 1);
    ec.faultMode = ExplorerFaultMode::DropDup;
    ec.faultBudget = 2;
    ec.maxSchedules = 100000;
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_GE(res.schedules, 1000u);
    EXPECT_GT(res.faultSchedules, 0u);
    // Fault-free baselines are part of the same tree.
    EXPECT_LT(res.faultSchedules, res.schedules);
    EXPECT_EQ(res.decisions, res.visited + res.reExecuted);
    // On a deep tree the replay overhead dominates fresh visits —
    // exactly the cost the spec-level checker's visited-set dedup
    // avoids (docs/model-checking.md).
    EXPECT_GT(res.reExecuted, res.visited);
    expectTree(res, {1774, 16730, 4705, 12025, 1770});
}

TEST(ModelCheck, NumaDropDupStaysCoherent)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Numa, 2, 0);
    ec.faultMode = ExplorerFaultMode::DropDup;
    ec.maxSchedules = 10000;
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_GE(res.schedules, 50u);
    EXPECT_GT(res.faultSchedules, 0u);
    expectTree(res, {76, 586, 277, 309, 72});
}

// --------------------------------------------- one D-node fail-stop

TEST(ModelCheck, AggDNodeDeathAtEveryPointRecovers)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Agg, 2, 2);
    ec.faultMode = ExplorerFaultMode::Death;
    ec.maxSchedules = 4000;
    // Failover drops home data; the quiescent scan still passes because
    // paged-out entries are exempt from the home-copy check.
    Explorer ex(std::move(ec));
    const ExplorerResult res = ex.run();
    EXPECT_GE(res.schedules, 10u);
    EXPECT_GT(res.faultSchedules, 0u);
    expectTree(res, {42, 290, 157, 133, 38});
}

// ------------------------------------------------ mutation self-tests

// Each seeded protocol bug (sim/config.hh ProtoMutation) must make some
// schedule panic; the same script with the mutation off runs clean, so
// the checks fire on the bug, not on the workload.
struct MutationCase
{
    ProtoMutation mutation;
    ArchKind arch;
    std::vector<ScriptedAccess> accesses;
};

const std::vector<ScriptedAccess> kReadThenWrite = {
    {0, kLine, false},
    {1, kLine, true},
};
const std::vector<ScriptedAccess> kAbsorbThenWrite = {
    {1, kLine, false}, // the home absorbs a copy into a Data slot
    {0, kLine, true},  // the write grant releases the slot
};

ExplorerConfig
mutationExplorer(const MutationCase &c, ProtoMutation mutation)
{
    ExplorerConfig ec = twoWriterConflict(c.arch, 2, 1);
    if (!c.accesses.empty())
        ec.accesses = c.accesses;
    ec.machine.check.mutation = mutation;
    return ec;
}

class ModelCheckMutation : public ::testing::TestWithParam<MutationCase>
{
};

TEST_P(ModelCheckMutation, IsCaught)
{
    Explorer ex(mutationExplorer(GetParam(), GetParam().mutation));
    EXPECT_THROW(ex.run(), PanicError);
}

TEST_P(ModelCheckMutation, CleanWhenDisabled)
{
    Explorer ex(mutationExplorer(GetParam(), ProtoMutation::None));
    EXPECT_FALSE(ex.run().truncated);
}

const char *
mutationName(ProtoMutation m)
{
    switch (m) {
      case ProtoMutation::SkipInval:
        return "SkipInval";
      case ProtoMutation::DoubleOwner:
        return "DoubleOwner";
      case ProtoMutation::LeakSlot:
        return "LeakSlot";
      case ProtoMutation::None:
        break;
    }
    return "None";
}

// An empty script means the two-writer conflict.
INSTANTIATE_TEST_SUITE_P(
    Seeded, ModelCheckMutation,
    ::testing::Values(
        MutationCase{ProtoMutation::SkipInval, ArchKind::Agg, kReadThenWrite},
        MutationCase{ProtoMutation::SkipInval, ArchKind::Coma,
                     kReadThenWrite},
        MutationCase{ProtoMutation::SkipInval, ArchKind::Numa,
                     kReadThenWrite},
        MutationCase{ProtoMutation::DoubleOwner, ArchKind::Agg, {}},
        MutationCase{ProtoMutation::DoubleOwner, ArchKind::Coma, {}},
        MutationCase{ProtoMutation::DoubleOwner, ArchKind::Numa, {}},
        MutationCase{ProtoMutation::LeakSlot, ArchKind::Agg,
                     kAbsorbThenWrite}),
    [](const auto &info) {
        return std::string(mutationName(info.param.mutation)) + "_" +
               archName(info.param.arch);
    });

// ------------------------------------------------- config validation

TEST(ModelCheck, RejectsEmptyScript)
{
    ExplorerConfig ec;
    ec.machine = tinyCheckMachine(ArchKind::Agg, 2, 1);
    EXPECT_THROW(Explorer{std::move(ec)}, FatalError);
}

TEST(ModelCheck, RejectsDeathModeWithoutFailoverSurvivor)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Agg, 2, 1);
    ec.faultMode = ExplorerFaultMode::Death;
    EXPECT_THROW(Explorer{std::move(ec)}, FatalError);
}

TEST(ModelCheck, RejectsAccessOutsideTheMachine)
{
    ExplorerConfig ec = twoWriterConflict(ArchKind::Agg, 2, 1);
    ec.accesses.push_back({17, kLine, false});
    EXPECT_THROW(Explorer{std::move(ec)}, FatalError);
}

} // namespace
} // namespace pimdsm
