#include "mem/cache_array.hh"

#include <algorithm>
#include <sstream>

#include "sim/log.hh"

namespace pimdsm
{

const char *
cohStateName(CohState s)
{
    switch (s) {
      case CohState::Invalid:
        return "I";
      case CohState::Shared:
        return "S";
      case CohState::SharedMaster:
        return "Sm";
      case CohState::Dirty:
        return "D";
      default:
        return "?";
    }
}

void
CacheLine::panicBadTag(Addr a)
{
    std::ostringstream os;
    os << "CacheLine tag 0x" << std::hex << a << " is not aligned to a "
       << std::dec << kMinLineBytes << "-byte line or is the no-tag code";
    panic(os.str());
}

void
CacheLine::panicVersionOverflow(Version v)
{
    panic("CacheLine version " + std::to_string(v) +
          " does not fit its 32-bit field");
}

CacheArray::CacheArray(std::uint64_t size_bytes, int assoc, int line_bytes)
    : assoc_(assoc), lineBytes_(line_bytes)
{
    if (!isPow2(static_cast<std::uint64_t>(line_bytes)))
        fatal("cache line size must be a power of two");
    if (line_bytes < CacheLine::kMinLineBytes)
        fatal("cache line size must be at least " +
              std::to_string(CacheLine::kMinLineBytes) + " bytes");
    if (assoc <= 0)
        fatal("associativity must be positive");
    std::uint64_t lines = size_bytes / line_bytes;
    if (lines < static_cast<std::uint64_t>(assoc))
        lines = assoc;
    numSets_ = static_cast<int>(lines / assoc);
    if (numSets_ == 0)
        numSets_ = 1;
    setShift_ = log2i(static_cast<std::uint64_t>(lineBytes_));
    setsPow2_ = isPow2(static_cast<std::uint64_t>(numSets_));
    setMask_ = static_cast<std::uint64_t>(numSets_) - 1;
    lines_.resize(static_cast<std::size_t>(numSets_) * assoc_);
}

CacheLine *
CacheArray::find(Addr addr)
{
    const Addr line_addr = align(addr);
    const int set = setIndex(addr);
    CacheLine *base = &lines_[static_cast<std::size_t>(set) * assoc_];
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].holds(line_addr))
            return &base[w];
    }
    return nullptr;
}

const CacheLine *
CacheArray::find(Addr addr) const
{
    return const_cast<CacheArray *>(this)->find(addr);
}

int
CacheArray::replacementRank(const CacheLine &line, VictimPolicy policy) const
{
    if (!line.valid())
        return 0;
    if (policy == VictimPolicy::Lru)
        return 1;
    // ComaPriority: non-master shared copies are cheap to drop; master
    // and dirty lines require injection, so keep them longest.
    switch (line.state()) {
      case CohState::Shared:
        return 1;
      case CohState::SharedMaster:
        return 2;
      case CohState::Dirty:
        return 3;
      default:
        return 1;
    }
}

int
CacheArray::randomWay()
{
    // xorshift64: deterministic across runs and platforms.
    randState_ ^= randState_ << 13;
    randState_ ^= randState_ >> 7;
    randState_ ^= randState_ << 17;
    return static_cast<int>(randState_ % assoc_);
}

CacheLine *
CacheArray::victim(Addr addr, VictimPolicy policy)
{
    const int set = setIndex(addr);
    CacheLine *base = &lines_[static_cast<std::size_t>(set) * assoc_];

    if (policy == VictimPolicy::Random) {
        for (int w = 0; w < assoc_; ++w) {
            if (!base[w].valid())
                return &base[w];
        }
        return &base[randomWay()];
    }

    CacheLine *best = &base[0];
    int best_rank = replacementRank(base[0], policy);
    for (int w = 1; w < assoc_; ++w) {
        const int rank = replacementRank(base[w], policy);
        if (rank < best_rank ||
            (rank == best_rank && base[w].lastUse_ < best->lastUse_)) {
            best = &base[w];
            best_rank = rank;
        }
    }
    return best;
}

void
CacheArray::renormaliseLru()
{
    std::vector<std::uint32_t> stamps;
    std::uint32_t top = 0;
    for (std::size_t base = 0; base < lines_.size(); base += assoc_) {
        stamps.clear();
        stamps.push_back(0); // reset entries keep stamp 0
        for (int w = 0; w < assoc_; ++w)
            stamps.push_back(lines_[base + w].lastUse_);
        std::sort(stamps.begin(), stamps.end());
        stamps.erase(std::unique(stamps.begin(), stamps.end()),
                     stamps.end());
        for (int w = 0; w < assoc_; ++w) {
            CacheLine &line = lines_[base + w];
            line.lastUse_ = static_cast<std::uint32_t>(
                std::lower_bound(stamps.begin(), stamps.end(),
                                 line.lastUse_) -
                stamps.begin());
        }
        top = std::max(top, static_cast<std::uint32_t>(stamps.size() - 1));
    }
    lruClock_ = top;
}

void
CacheArray::invalidateAll()
{
    for (auto &line : lines_)
        line.reset();
}

void
CacheArray::forEach(FunctionRef<void(CacheLine &)> fn)
{
    for (auto &line : lines_)
        fn(line);
}

void
CacheArray::forEach(FunctionRef<void(const CacheLine &)> fn) const
{
    for (const auto &line : lines_)
        fn(line);
}

void
CacheArray::forEachInSet(int set, FunctionRef<void(CacheLine &)> fn)
{
    CacheLine *base = &lines_[static_cast<std::size_t>(set) * assoc_];
    for (int w = 0; w < assoc_; ++w)
        fn(base[w]);
}

std::uint64_t
CacheArray::countValid() const
{
    std::uint64_t n = 0;
    for (const auto &line : lines_) {
        if (line.valid())
            ++n;
    }
    return n;
}

} // namespace pimdsm
