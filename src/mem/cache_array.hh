/**
 * @file
 * Generic set-associative tag array used by the L1/L2 caches, the tagged
 * local memories of AGG P-nodes, and COMA attraction memories.
 */

#ifndef PIMDSM_MEM_CACHE_ARRAY_HH
#define PIMDSM_MEM_CACHE_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

#include "sim/types.hh"
#include "sim/function_ref.hh"

namespace pimdsm
{

/**
 * Node-level coherence state of a memory line (Section 2.1.1 plus the
 * COMA-inspired shared-master state of Section 2.2.2).
 */
enum class CohState : std::uint8_t
{
    Invalid = 0,
    Shared,       ///< read-only copy; home (or a master) also has it
    SharedMaster, ///< read-only copy holding mastership; must write back
    Dirty,        ///< exclusive modified copy; no home placeholder in AGG
};

const char *cohStateName(CohState s);

/** True for states that hold readable data. */
constexpr bool
cohValid(CohState s)
{
    return s != CohState::Invalid;
}

/** True for states whose displacement must reach the home. */
constexpr bool
cohOwned(CohState s)
{
    return s == CohState::Dirty || s == CohState::SharedMaster;
}

/**
 * One tag-array entry, packed into 16 bytes so that a 4-way set is one
 * 64-byte host cache line.
 *
 * The tag word holds the full 64-bit line address with the coherence
 * state, the write-back bit and the on-chip residence bit folded into
 * its low four bits, which are zero in any address aligned to a line of
 * at least kMinLineBytes. The version is stored in 32 bits (a larger
 * one panics) and the LRU stamp is its array's 32-bit clock, which
 * CacheArray renormalises before it wraps.
 */
class CacheLine
{
  public:
    /** Smallest line whose aligned addresses leave the flag bits free. */
    static constexpr int kMinLineBytes = 16;

    /** Aligned line address (the tag), or kInvalidAddr if never set. */
    Addr
    lineAddr() const
    {
        const Addr a = tag_ & kAddrMask;
        return a == kAddrMask ? kInvalidAddr : a;
    }

    /** Set the tag; @p a is line aligned or kInvalidAddr. */
    void
    setLineAddr(Addr a)
    {
        // kAddrMask itself encodes "no tag", so no line may use it.
        if (a != kInvalidAddr && ((a & kFlagMask) != 0 || a == kAddrMask))
            panicBadTag(a);
        tag_ = (a & kAddrMask) | (tag_ & kFlagMask);
    }

    CohState
    state() const
    {
        return static_cast<CohState>(tag_ & kStateMask);
    }

    void
    setState(CohState s)
    {
        tag_ = (tag_ & ~kStateMask) | static_cast<std::uint64_t>(s);
    }

    /** L1/L2 write-back bit. */
    bool dirty() const { return (tag_ & kDirtyBit) != 0; }
    void setDirty(bool d) { setFlag(kDirtyBit, d); }

    /** Tagged-memory on-/off-chip residence. */
    bool onChip() const { return (tag_ & kOnChipBit) != 0; }
    void setOnChip(bool on) { setFlag(kOnChipBit, on); }

    /** Functional data version (node level). */
    Version version() const { return version_; }

    void
    setVersion(Version v)
    {
        if (v > std::numeric_limits<std::uint32_t>::max())
            panicVersionOverflow(v);
        version_ = static_cast<std::uint32_t>(v);
    }

    /** LRU stamp; only comparable with stamps of the same set. */
    std::uint32_t lastUse() const { return lastUse_; }

    bool valid() const { return (tag_ & kStateMask) != 0; }

    /**
     * Invalidate the entry: no tag, Invalid, clean, version and LRU
     * stamp zero. Reset keeps residence: onChip() is unchanged, since
     * the on-chip ways of a tagged-memory set are fixed in number.
     */
    void
    reset()
    {
        tag_ = kAddrMask | (tag_ & kOnChipBit);
        lastUse_ = 0;
        version_ = 0;
    }

  private:
    friend class CacheArray;

    static constexpr std::uint64_t kStateMask = 0x3;
    static constexpr std::uint64_t kDirtyBit = 0x4;
    static constexpr std::uint64_t kOnChipBit = 0x8;
    static constexpr std::uint64_t kFlagMask =
        static_cast<std::uint64_t>(kMinLineBytes - 1);
    static constexpr std::uint64_t kAddrMask = ~kFlagMask;

    void
    setFlag(std::uint64_t bit, bool on)
    {
        tag_ = on ? (tag_ | bit) : (tag_ & ~bit);
    }

    /** True iff the entry is valid and tagged with @p line_addr. */
    bool
    holds(Addr line_addr) const
    {
        return (tag_ & kAddrMask) == line_addr && valid();
    }

    [[noreturn]] static void panicBadTag(Addr a);
    [[noreturn]] static void panicVersionOverflow(Version v);

    std::uint64_t tag_ = kAddrMask | kOnChipBit;
    std::uint32_t lastUse_ = 0;
    std::uint32_t version_ = 0;
};

static_assert(sizeof(CacheLine) == 16, "CacheLine is packed into 16 B");
static_assert(static_cast<int>(CohState::Dirty) <= 3,
              "CohState must fit the tag's two state bits");

/** Victim-selection disciplines. */
enum class VictimPolicy
{
    Lru,  ///< invalid first, then least recently used
    /**
     * COMA replacement (Section 3): invalid and non-master lines are
     * replaced first; master/dirty lines only as a last resort.
     */
    ComaPriority,
    /**
     * Invalid first, then pseudo-random. DRAM caches favor simple
     * replacement, and random avoids LRU's zero-retention pathology
     * on cyclic sweeps larger than the capacity.
     */
    Random,
};

/**
 * Allocator for storage aligned to a host cache line, so that a set of
 * up to four CacheLines never straddles two.
 */
template <class T>
struct HostLineAllocator
{
    static constexpr std::size_t kAlign = 64;
    using value_type = T;

    HostLineAllocator() = default;
    template <class U>
    HostLineAllocator(const HostLineAllocator<U> &) {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
    }

    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p, std::align_val_t{kAlign});
    }

    template <class U>
    bool operator==(const HostLineAllocator<U> &) const { return true; }
    template <class U>
    bool operator!=(const HostLineAllocator<U> &) const { return false; }
};

static_assert(4 * sizeof(CacheLine) == HostLineAllocator<CacheLine>::kAlign,
              "a 4-way set is one host cache line");

class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     * @param line_bytes line size (power of two)
     */
    CacheArray(std::uint64_t size_bytes, int assoc, int line_bytes);

    int numSets() const { return numSets_; }
    int assoc() const { return assoc_; }
    int lineBytes() const { return lineBytes_; }
    std::uint64_t numLines() const
    {
        return static_cast<std::uint64_t>(numSets_) * assoc_;
    }

    /** Set index for an address. */
    int
    setIndex(Addr addr) const
    {
        const std::uint64_t block = addr >> setShift_;
        if (setsPow2_)
            return static_cast<int>(block & setMask_);
        return static_cast<int>(block %
                                static_cast<std::uint64_t>(numSets_));
    }

    /** Align an address to this array's line size. */
    Addr align(Addr addr) const
    {
        return blockAlign(addr, static_cast<std::uint64_t>(lineBytes_));
    }

    /** Find the valid entry holding @p addr's line, or nullptr. */
    CacheLine *find(Addr addr);
    const CacheLine *find(Addr addr) const;

    /**
     * Choose the way that an insertion of @p addr's line would use:
     * an invalid way if available, otherwise the policy's victim.
     * Never returns nullptr.
     */
    CacheLine *victim(Addr addr, VictimPolicy policy = VictimPolicy::Lru);

    /** Mark @p line most recently used. */
    void
    touch(CacheLine &line)
    {
        if (lruClock_ == std::numeric_limits<std::uint32_t>::max())
            renormaliseLru();
        line.lastUse_ = ++lruClock_;
    }

    /** The LRU clock's last stamp. */
    std::uint32_t lruClock() const { return lruClock_; }

    /** Preset the LRU clock (tests of the wrap-around path). */
    void setLruClockForTest(std::uint32_t clock) { lruClock_ = clock; }

    /** First entry of the storage (tests of its alignment). */
    const CacheLine *data() const { return lines_.data(); }

    /** Invalidate all lines (does not report dirty victims). */
    void invalidateAll();

    /** Visit every entry (valid or not). */
    void forEach(FunctionRef<void(CacheLine &)> fn);
    void forEach(FunctionRef<void(const CacheLine &)> fn) const;

    /** Visit the ways of one set. */
    void forEachInSet(int set, FunctionRef<void(CacheLine &)> fn);

    /** Count of valid entries (linear scan; for tests and census). */
    std::uint64_t countValid() const;

  private:
    int replacementRank(const CacheLine &line, VictimPolicy policy) const;

    /**
     * Rewrite every set's stamps as their ranks within the set (0
     * stays 0) and restart the clock above the largest rank. Only
     * stamps of one set are ever compared, so every victim and
     * migration choice is unchanged.
     */
    void renormaliseLru();

    /** Deterministic pseudo-random way pick. */
    int randomWay();

    std::uint64_t randState_ = 0x2545f4914f6cdd1dull;

    int numSets_;
    int assoc_;
    int lineBytes_;
    int setShift_;
    bool setsPow2_;
    std::uint64_t setMask_; ///< numSets_ - 1; used when setsPow2_
    std::uint32_t lruClock_ = 0;
    std::vector<CacheLine, HostLineAllocator<CacheLine>> lines_;
};

} // namespace pimdsm

#endif // PIMDSM_MEM_CACHE_ARRAY_HH
