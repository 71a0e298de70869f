/**
 * @file
 * Coherence-oracle self-tests: each deliberate protocol mutation
 * (sim/config.hh ProtoMutation) breaks one invariant in a targeted
 * way, and the oracle or the quiescent scan must catch it. The same
 * scenarios must run clean with the mutation disabled — the detectors
 * fire on the bug, not on the workload.
 */

#include <gtest/gtest.h>

#include "check/explorer.hh"
#include "machine/machine.hh"
#include "sim/log.hh"

namespace pimdsm
{
namespace
{

constexpr Addr kLine = 1ull << 20;

MachineConfig
checkedCfg(ProtoMutation mutation)
{
    MachineConfig cfg = tinyCheckMachine(ArchKind::Agg, 2, 1);
    cfg.check.enabled = true;
    cfg.check.mutation = mutation;
    return cfg;
}

void
doAccess(Machine &m, NodeId n, Addr a, bool write)
{
    bool done = false;
    m.compute(n)->access(a, write, [&](Tick, ReadService) {
        done = true;
    });
    m.eq().run();
    ASSERT_TRUE(done);
}

// A reader keeps its copy through an invalidation (it still acks, so
// the writer completes). The AGG cold read granted it mastership, so
// the stale survivor is owner-ish and the oracle's continuous SWMR
// check fires the moment the writer installs Dirty.
TEST(OracleMutation, SkipInvalCaughtBySwmr)
{
    Machine m(checkedCfg(ProtoMutation::SkipInval));
    doAccess(m, 0, kLine, false);
    m.compute(1)->access(kLine, true, [](Tick, ReadService) {});
    EXPECT_THROW(m.eq().run(), PanicError);
    EXPECT_GT(m.stats().get("check.mutation.skip_inval"), 0.0);
}

TEST(OracleMutation, SkipInvalScenarioCleanWhenDisabled)
{
    Machine m(checkedCfg(ProtoMutation::None));
    doAccess(m, 0, kLine, false);
    doAccess(m, 1, kLine, true);
    m.checkCoherenceQuiescent();
}

// The home forgets a dirty owner and serves a second write as if the
// line were uncached: two nodes install Dirty, and the oracle's
// continuous SWMR check fires the moment the second owner installs.
TEST(OracleMutation, DoubleOwnerCaughtBySwmrMidRun)
{
    Machine m(checkedCfg(ProtoMutation::DoubleOwner));
    doAccess(m, 0, kLine, true);
    bool done = false;
    m.compute(1)->access(kLine, true, [&](Tick, ReadService) {
        done = true;
    });
    EXPECT_THROW(m.eq().run(), PanicError);
    EXPECT_GT(m.stats().get("check.mutation.double_owner"), 0.0);
}

TEST(OracleMutation, DoubleOwnerScenarioCleanWhenDisabled)
{
    Machine m(checkedCfg(ProtoMutation::None));
    doAccess(m, 0, kLine, true);
    doAccess(m, 1, kLine, true);
    m.checkCoherenceQuiescent();
}

// The D-node "forgets" to return a Data slot to the FreeList when a
// write grant releases the home copy: the slot-conservation scan sees
// more slots in use than directory entries referencing them.
void
runLeakSlotScenario(Machine &m)
{
    doAccess(m, 1, kLine, false); // home absorbs a copy into a slot
    doAccess(m, 0, kLine, true);  // grant releases (and leaks) it
}

TEST(OracleMutation, LeakSlotCaughtBySlotConservation)
{
    Machine m(checkedCfg(ProtoMutation::LeakSlot));
    runLeakSlotScenario(m);
    EXPECT_GT(m.stats().get("check.mutation.leak_slot"), 0.0);
    EXPECT_THROW(m.checkInvariants(), PanicError);
}

TEST(OracleMutation, LeakSlotScenarioCleanWhenDisabled)
{
    Machine m(checkedCfg(ProtoMutation::None));
    runLeakSlotScenario(m);
    m.checkInvariants();
    m.checkCoherenceQuiescent();
}

} // namespace
} // namespace pimdsm
