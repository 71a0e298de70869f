/**
 * @file
 * Allocation-free-when-idle FIFO for per-line and per-transaction
 * queues.
 *
 * Fifo<T> is a std::vector plus a head index. It replaces std::deque
 * inside values that are created, moved and destroyed at simulation
 * rate: directory entries (FlatMap slots, moved on every robin-hood
 * displacement and rehash), MSHRs and writeback-blocked access lists.
 * libstdc++'s std::deque allocates a 64 B map plus a 512 B node when it
 * is constructed and again when it is moved from, so every such value
 * paid 576 B of heap even though almost all of its queues stay empty.
 * A default-constructed or moved-from Fifo owns no heap memory, and a
 * move only transfers the vector's pointers.
 *
 * pop_front() advances the head. When the queue drains, or the popped
 * prefix reaches half the storage, the popped elements are destroyed
 * and the storage rewound (capacity kept), so a busy line reuses it
 * for its next burst. Iteration visits the live elements front to
 * back.
 */

#ifndef PIMDSM_SIM_FIFO_HH
#define PIMDSM_SIM_FIFO_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace pimdsm
{

template <typename T>
class Fifo
{
  public:
    using iterator = typename std::vector<T>::iterator;
    using const_iterator = typename std::vector<T>::const_iterator;

    Fifo() = default;

    Fifo(Fifo &&other) noexcept
        : items_(std::move(other.items_)), head_(other.head_)
    {
        other.items_.clear();
        other.head_ = 0;
    }

    Fifo &
    operator=(Fifo &&other) noexcept
    {
        if (this != &other) {
            items_ = std::move(other.items_);
            head_ = other.head_;
            other.items_.clear();
            other.head_ = 0;
        }
        return *this;
    }

    Fifo(const Fifo &) = default;
    Fifo &operator=(const Fifo &) = default;

    bool empty() const { return head_ == items_.size(); }
    std::size_t size() const { return items_.size() - head_; }

    T &front() { return items_[head_]; }

    void push_back(const T &v) { items_.push_back(v); }
    void push_back(T &&v) { items_.push_back(std::move(v)); }

    void
    pop_front()
    {
        if (++head_ == items_.size()) {
            clear();
        } else if (head_ * 2 >= items_.size()) {
            // A line that never fully drains (steady contention) must
            // not grow without bound: drop the popped prefix once it
            // is half the storage (amortized O(1) per pop).
            items_.erase(items_.begin(), items_.begin() + head_);
            head_ = 0;
        }
    }

    /** Drop every element (capacity kept). */
    void
    clear()
    {
        items_.clear();
        head_ = 0;
    }

    iterator begin() { return items_.begin() + head_; }
    iterator end() { return items_.end(); }
    const_iterator begin() const { return items_.begin() + head_; }
    const_iterator end() const { return items_.end(); }

  private:
    std::vector<T> items_;
    /** Index of the front element in items_. */
    std::uint32_t head_ = 0;
};

} // namespace pimdsm

#endif // PIMDSM_SIM_FIFO_HH
