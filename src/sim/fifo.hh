/**
 * @file
 * Allocation-free-when-idle FIFO for per-line and per-transaction
 * queues.
 *
 * Fifo<T> replaces std::deque inside values that are created, moved
 * and destroyed at simulation rate: directory entries (FlatMap slots,
 * moved on every robin-hood displacement and rehash), MSHRs and
 * writeback-blocked access lists. libstdc++'s std::deque allocates a
 * 64 B map plus a 512 B node when it is constructed and again when it
 * is moved from, so every such value paid 576 B of heap even though
 * almost all of its queues stay empty.
 *
 * A Fifo is one pointer. It owns nothing until the first push, which
 * allocates a single block holding the head/tail/capacity header and
 * the element storage; a move only transfers that pointer. The handle
 * size matters because every directory entry embeds one and nearly
 * all of them stay empty.
 *
 * pop_front() advances the head. When the queue drains, or the popped
 * prefix is as long as the live range, the live elements slide down
 * over it (the block is kept), so a busy line reuses the block for its
 * next burst. A full block doubles, as a vector would. Iteration
 * visits the live elements front to back.
 */

#ifndef PIMDSM_SIM_FIFO_HH
#define PIMDSM_SIM_FIFO_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace pimdsm
{

template <typename T>
class Fifo
{
  public:
    using iterator = T *;
    using const_iterator = const T *;

    Fifo() = default;

    Fifo(Fifo &&other) noexcept : blk_(other.blk_) { other.blk_ = nullptr; }

    Fifo &
    operator=(Fifo &&other) noexcept
    {
        if (this != &other) {
            release();
            blk_ = other.blk_;
            other.blk_ = nullptr;
        }
        return *this;
    }

    Fifo(const Fifo &other)
    {
        if (other.empty())
            return;
        blk_ = allocate(static_cast<std::uint32_t>(other.size()));
        for (const T &v : other) {
            new (data() + blk_->tail) T(v);
            ++blk_->tail;
        }
    }

    Fifo &
    operator=(const Fifo &other)
    {
        if (this != &other) {
            Fifo copy(other);
            *this = std::move(copy);
        }
        return *this;
    }

    ~Fifo() { release(); }

    bool empty() const { return !blk_ || blk_->head == blk_->tail; }
    std::size_t size() const { return blk_ ? blk_->tail - blk_->head : 0; }

    T &front() { return data()[blk_->head]; }

    void push_back(const T &v) { pushBack(v); }
    void push_back(T &&v) { pushBack(std::move(v)); }

    void
    pop_front()
    {
        T *d = data();
        d[blk_->head].~T();
        if (++blk_->head == blk_->tail) {
            blk_->head = blk_->tail = 0;
        } else if (blk_->head * 2 >= blk_->tail) {
            // A line that never fully drains (steady contention) must
            // not grow without bound: slide the live elements down
            // once the popped prefix is at least as long (amortized
            // O(1) per pop). Every target slot is a popped one.
            const std::uint32_t live = blk_->tail - blk_->head;
            for (std::uint32_t i = 0; i < live; ++i) {
                new (d + i) T(std::move(d[blk_->head + i]));
                d[blk_->head + i].~T();
            }
            blk_->head = 0;
            blk_->tail = live;
        }
    }

    /** Drop every element (the block is kept). */
    void
    clear()
    {
        if (!blk_)
            return;
        destroyLive();
        blk_->head = blk_->tail = 0;
    }

    iterator begin() { return blk_ ? data() + blk_->head : nullptr; }
    iterator end() { return blk_ ? data() + blk_->tail : nullptr; }
    const_iterator
    begin() const
    {
        return blk_ ? data() + blk_->head : nullptr;
    }
    const_iterator
    end() const
    {
        return blk_ ? data() + blk_->tail : nullptr;
    }

  private:
    struct Header
    {
        /** Index of the front element. */
        std::uint32_t head;
        /** One past the back element. */
        std::uint32_t tail;
        /** Element slots in the block. */
        std::uint32_t cap;
    };

    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "Fifo blocks use the default operator new alignment");

    /** Element storage starts at the first T-aligned offset after the
     *  header. */
    static constexpr std::size_t kDataOffset =
        (sizeof(Header) + alignof(T) - 1) / alignof(T) * alignof(T);

    T *
    data()
    {
        return reinterpret_cast<T *>(reinterpret_cast<char *>(blk_) +
                                     kDataOffset);
    }
    const T *
    data() const
    {
        return reinterpret_cast<const T *>(
            reinterpret_cast<const char *>(blk_) + kDataOffset);
    }

    static Header *
    allocate(std::uint32_t cap)
    {
        auto *h = static_cast<Header *>(
            ::operator new(kDataOffset + sizeof(T) * cap));
        h->head = h->tail = 0;
        h->cap = cap;
        return h;
    }

    template <typename U>
    void
    pushBack(U &&v)
    {
        if (!blk_ || blk_->tail == blk_->cap) {
            grow(std::forward<U>(v));
            return;
        }
        new (data() + blk_->tail) T(std::forward<U>(v));
        ++blk_->tail;
    }

    /**
     * Push into a new block of twice the capacity (one slot for the
     * first push). The new element is built first, so a @p v that
     * refers to an element of this queue is still intact; then the
     * live elements move over and the old block is freed.
     */
    template <typename U>
    void
    grow(U &&v)
    {
        const std::uint32_t live =
            blk_ ? blk_->tail - blk_->head : 0;
        Fifo next;
        next.blk_ = allocate(blk_ ? blk_->cap * 2 : 1);
        new (next.data() + live) T(std::forward<U>(v));
        if (blk_) {
            T *from = data() + blk_->head;
            for (std::uint32_t i = 0; i < live; ++i)
                new (next.data() + i) T(std::move(from[i]));
        }
        next.blk_->tail = live + 1;
        *this = std::move(next);
    }

    void
    destroyLive()
    {
        T *d = data();
        for (std::uint32_t i = blk_->head; i < blk_->tail; ++i)
            d[i].~T();
    }

    void
    release()
    {
        if (!blk_)
            return;
        destroyLive();
        ::operator delete(blk_);
        blk_ = nullptr;
    }

    Header *blk_ = nullptr;
};

} // namespace pimdsm

#endif // PIMDSM_SIM_FIFO_HH
