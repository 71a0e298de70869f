/**
 * @file
 * Unit + property tests for the memory substrate: set-associative
 * arrays, L1/L2 caches, tagged local memory (migration invariant),
 * plain memory.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "mem/cache.hh"
#include "mem/cache_array.hh"
#include "mem/plain_memory.hh"
#include "mem/tagged_memory.hh"
#include "sim/random.hh"

namespace pimdsm
{
namespace
{

TEST(CacheArray, GeometryAndLookup)
{
    CacheArray arr(8 * 1024, 2, 64);
    EXPECT_EQ(arr.numSets(), 64);
    EXPECT_EQ(arr.assoc(), 2);
    EXPECT_EQ(arr.numLines(), 128u);

    EXPECT_EQ(arr.find(0x1000), nullptr);
    CacheLine *way = arr.victim(0x1000);
    ASSERT_NE(way, nullptr);
    way->setLineAddr(arr.align(0x1000));
    way->setState(CohState::Shared);
    arr.touch(*way);
    EXPECT_EQ(arr.find(0x1004), way); // same line, different offset
    EXPECT_EQ(arr.find(0x2000), nullptr);
}

TEST(CacheArray, LruVictimSelection)
{
    CacheArray arr(4 * 64, 4, 64); // one set, 4 ways
    Addr addrs[4] = {0x000, 0x100, 0x200, 0x300};
    for (Addr a : addrs) {
        CacheLine *w = arr.victim(a);
        w->setLineAddr(a);
        w->setState(CohState::Shared);
        arr.touch(*w);
    }
    // Re-touch everything except 0x100: it becomes the LRU victim.
    arr.touch(*arr.find(0x000));
    arr.touch(*arr.find(0x200));
    arr.touch(*arr.find(0x300));
    EXPECT_EQ(arr.victim(0x400)->lineAddr(), 0x100u);
}

TEST(CacheArray, InvalidWayPreferred)
{
    CacheArray arr(4 * 64, 4, 64);
    for (Addr a : {0x000, 0x100, 0x200}) {
        CacheLine *w = arr.victim(a);
        w->setLineAddr(a);
        w->setState(CohState::Shared);
        arr.touch(*w);
    }
    EXPECT_FALSE(arr.victim(0x400)->valid());
}

TEST(CacheArray, ComaPriorityProtectsMasters)
{
    CacheArray arr(4 * 64, 4, 64);
    const CohState states[4] = {CohState::Dirty, CohState::SharedMaster,
                                CohState::Shared, CohState::Shared};
    for (int i = 0; i < 4; ++i) {
        CacheLine *w = arr.victim(static_cast<Addr>(i) << 8);
        w->setLineAddr(static_cast<Addr>(i) << 8);
        w->setState(states[i]);
        arr.touch(*w);
    }
    // Non-master shared lines are replaced first.
    CacheLine *v = arr.victim(0x900, VictimPolicy::ComaPriority);
    EXPECT_EQ(v->state(), CohState::Shared);

    // With only owned lines left, the master goes before the dirty.
    arr.find(0x200)->setState(CohState::Dirty);
    arr.find(0x300)->setState(CohState::SharedMaster);
    v = arr.victim(0x900, VictimPolicy::ComaPriority);
    EXPECT_EQ(v->state(), CohState::SharedMaster);
}

TEST(CacheArray, SetIndexMatchesModulo)
{
    // Power-of-two set counts take the mask path, others the modulo.
    const int geometries[][3] = {{8 * 1024, 2, 64},   {64, 1, 64},
                                 {32 * 1024, 8, 128}, {3 * 4 * 64, 4, 64},
                                 {5 * 2 * 128, 2, 128}, {48 * 64, 1, 64}};
    Rng rng(11);
    for (const auto &g : geometries) {
        CacheArray arr(static_cast<std::uint64_t>(g[0]), g[1], g[2]);
        const int shift = log2i(static_cast<std::uint64_t>(g[2]));
        for (int i = 0; i < 2000; ++i) {
            const Addr a = rng.next();
            ASSERT_EQ(static_cast<std::uint64_t>(arr.setIndex(a)),
                      (a >> shift) %
                          static_cast<std::uint64_t>(arr.numSets()))
                << "sets=" << arr.numSets() << " addr=" << a;
        }
    }
}

TEST(CacheArray, StorageIsHostLineAligned)
{
    for (int assoc : {1, 2, 4, 8}) {
        CacheArray arr(4096, assoc, 64);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arr.data()) % 64, 0u);
    }
}

/** Every way's tag, state and residence, in storage order. */
std::vector<std::tuple<Addr, CohState, bool>>
snapshot(const CacheArray &arr)
{
    std::vector<std::tuple<Addr, CohState, bool>> out;
    arr.forEach([&](const CacheLine &l) {
        out.emplace_back(l.lineAddr(), l.state(), l.onChip());
    });
    return out;
}

TEST(CacheArray, LruOrderSurvivesClockWrap)
{
    MemParams p;
    p.assoc = 4;
    p.lineBytes = 128;
    p.onChipFraction = 0.5;
    TaggedMemory fresh(4 * 4 * 128, p);
    TaggedMemory wrapped(4 * 4 * 128, p);
    wrapped.array().setLruClockForTest(
        std::numeric_limits<std::uint32_t>::max() - 1000);

    Rng rng(17);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = rng.nextBounded(64) * 128;
        TaggedMemory *tms[2] = {&fresh, &wrapped};
        Addr evicted[2];
        for (int k = 0; k < 2; ++k) {
            CacheLine *l = tms[k]->find(a);
            evicted[k] = kInvalidAddr;
            if (!l) {
                l = tms[k]->victim(a);
                evicted[k] = l->lineAddr();
                tms[k]->install(*l, a, CohState::Shared);
            }
            tms[k]->accessAndMigrate(*l);
        }
        ASSERT_EQ(evicted[0], evicted[1]) << "access " << i;
        ASSERT_EQ(snapshot(fresh.array()), snapshot(wrapped.array()))
            << "access " << i;
    }
    EXPECT_EQ(fresh.migrations(), wrapped.migrations());
    EXPECT_GT(wrapped.migrations(), 0u);
    // The clock wrapped and restarted from the renormalised stamps.
    EXPECT_LT(wrapped.array().lruClock(), fresh.array().lruClock());
}

TEST(CacheLine, PackedTagAndFlagsRoundTrip)
{
    CacheLine l;
    EXPECT_FALSE(l.valid());
    EXPECT_EQ(l.lineAddr(), kInvalidAddr);
    EXPECT_TRUE(l.onChip());

    const Addr high = 0xfedc'ba98'7654'3200ull; // needs all 64 bits
    const CohState states[] = {CohState::Invalid, CohState::Shared,
                               CohState::SharedMaster, CohState::Dirty};
    for (CohState st : states) {
        for (bool dirty : {false, true}) {
            for (bool on : {false, true}) {
                l.setLineAddr(high);
                l.setState(st);
                l.setDirty(dirty);
                l.setOnChip(on);
                l.setVersion(0xffff'ffffull);
                EXPECT_EQ(l.lineAddr(), high);
                EXPECT_EQ(l.state(), st);
                EXPECT_EQ(l.valid(), st != CohState::Invalid);
                EXPECT_EQ(l.dirty(), dirty);
                EXPECT_EQ(l.onChip(), on);
                EXPECT_EQ(l.version(), 0xffff'ffffull);
            }
        }
    }
    // Reset keeps residence and clears everything else.
    l.setOnChip(false);
    l.reset();
    EXPECT_FALSE(l.onChip());
    EXPECT_FALSE(l.valid());
    EXPECT_FALSE(l.dirty());
    EXPECT_EQ(l.lineAddr(), kInvalidAddr);
    EXPECT_EQ(l.version(), 0u);

    EXPECT_THROW(l.setLineAddr(0x1008), PanicError); // not line aligned
    // A line shorter than kMinLineBytes would overlap the flag bits.
    EXPECT_THROW(CacheArray(1024, 1, 8), FatalError);
}

TEST(CacheLine, VersionBeyond32BitsPanics)
{
    CacheLine l;
    l.setVersion(7);
    EXPECT_THROW(l.setVersion(0x1'0000'0000ull), PanicError);
    EXPECT_EQ(l.version(), 7u);
}

TEST(Cache, HitMissAndDirtyTracking)
{
    Cache c("l1", CacheParams{1024, 1, 64, 3});
    EXPECT_FALSE(c.access(0x40, false));
    c.fill(0x40, false);
    EXPECT_TRUE(c.access(0x40, false));
    EXPECT_TRUE(c.access(0x40, true));
    EXPECT_TRUE(c.invalidateLine(0x40)); // was dirty
    EXPECT_FALSE(c.access(0x40, false));
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, FillReportsVictim)
{
    Cache c("l1", CacheParams{64, 1, 64, 3}); // one line total
    c.fill(0x000, true);
    auto f = c.fill(0x1000, false);
    EXPECT_EQ(f.evictedLine, 0x000u);
    EXPECT_TRUE(f.evictedDirty);
}

TEST(Cache, InvalidateBlockCoversHalves)
{
    Cache c("l1", CacheParams{1024, 2, 64, 3});
    c.fill(0x100, false);
    c.fill(0x140, true);
    EXPECT_TRUE(c.invalidateBlock(0x100, 128));
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_FALSE(c.probe(0x140));
}

TEST(Cache, FillCarriesStateAndVersion)
{
    Cache c("l2", CacheParams{1024, 2, 128, 6});
    c.fill(0x200, false, CohState::Dirty, 7);
    const CacheLine *l = c.array().find(0x200);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state(), CohState::Dirty);
    EXPECT_EQ(l->version(), 7u);

    auto f = c.fill(0x200 + 1024, false, CohState::Shared, 9);
    (void)f;
}

MemParams
smallMemParams()
{
    MemParams p;
    p.assoc = 4;
    p.lineBytes = 128;
    p.onChipFraction = 0.5;
    return p;
}

TEST(TaggedMemory, OnOffChipLatencyAndMigration)
{
    TaggedMemory tm(4 * 4 * 128, smallMemParams()); // 4 sets x 4 ways
    EXPECT_EQ(tm.onChipWaysPerSet(), 2);
    EXPECT_TRUE(tm.checkOnChipInvariant());

    // Fill one set with 4 lines; stride = sets * lineBytes.
    const Addr stride = 4 * 128;
    for (int i = 0; i < 4; ++i) {
        CacheLine *w = tm.victim(i * stride);
        tm.install(*w, i * stride, CohState::Shared);
    }
    // Two of the four must be off chip.
    int off = 0;
    for (int i = 0; i < 4; ++i) {
        if (!tm.find(i * stride)->onChip())
            ++off;
    }
    EXPECT_EQ(off, 2);

    // Accessing an off-chip line migrates it on chip.
    CacheLine *offline = nullptr;
    for (int i = 0; i < 4; ++i) {
        if (!tm.find(i * stride)->onChip())
            offline = tm.find(i * stride);
    }
    ASSERT_NE(offline, nullptr);
    EXPECT_EQ(tm.accessAndMigrate(*offline),
              smallMemParams().offChipLatency);
    EXPECT_TRUE(offline->onChip());
    EXPECT_TRUE(tm.checkOnChipInvariant());
    EXPECT_EQ(tm.migrations(), 1u);

    // And now it hits on chip.
    EXPECT_EQ(tm.accessAndMigrate(*offline),
              smallMemParams().onChipLatency);
}

TEST(TaggedMemory, MigrationInvariantUnderRandomTraffic)
{
    MemParams p = smallMemParams();
    TaggedMemory tm(64 * 4 * 128, p);
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.nextBounded(4096) * 128;
        CacheLine *l = tm.find(a);
        if (!l) {
            l = tm.victim(a);
            tm.install(*l, a, CohState::Shared);
        }
        tm.accessAndMigrate(*l);
    }
    EXPECT_TRUE(tm.checkOnChipInvariant());
}

TEST(TaggedMemory, FullyOnChipNeverMigrates)
{
    MemParams p = smallMemParams();
    p.onChipFraction = 1.0;
    TaggedMemory tm(16 * 4 * 128, p);
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = rng.nextBounded(256) * 128;
        CacheLine *l = tm.find(a);
        if (!l) {
            l = tm.victim(a);
            tm.install(*l, a, CohState::Shared);
        }
        EXPECT_EQ(tm.accessAndMigrate(*l), p.onChipLatency);
    }
    EXPECT_EQ(tm.migrations(), 0u);
}

TEST(TaggedMemory, TransferOccupancyFromBandwidth)
{
    TaggedMemory tm(1 << 16, smallMemParams());
    EXPECT_EQ(tm.transferOccupancy(), 4u); // 128 B at 32 B/cycle
}

TEST(PlainMemory, SlotLatencySplit)
{
    MemParams p = smallMemParams();
    PlainMemory pm(1024 * 128, p);
    EXPECT_EQ(pm.capacityLines(), 1024u);
    EXPECT_EQ(pm.onChipLines(), 512u);
    EXPECT_EQ(pm.accessLatency(0), p.onChipLatency);
    EXPECT_EQ(pm.accessLatency(511), p.onChipLatency);
    EXPECT_EQ(pm.accessLatency(512), p.offChipLatency);
    EXPECT_EQ(pm.accessLatency(kInvalidAddr), p.offChipLatency);
}

} // namespace
} // namespace pimdsm
