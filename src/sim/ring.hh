/**
 * @file
 * A FIFO over one flat power-of-two buffer whose elements keep an
 * absolute position: the n-th element ever pushed sits at position n
 * until it is popped, so a position a caller holds never shifts as the
 * front is popped or the buffer grows.
 */

#ifndef VIP_SIM_RING_HH
#define VIP_SIM_RING_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace vip {

template <typename T>
class Ring
{
  public:
    /** @p capacity is rounded up to a power of two; a push into a
     *  full ring doubles it. */
    explicit Ring(std::size_t capacity = 4)
    {
        std::size_t n = 1;
        while (n < capacity)
            n *= 2;
        buf_.resize(n);
        mask_ = n - 1;
    }

    std::uint64_t head() const { return head_; }  ///< position of front
    std::uint64_t end() const { return end_; }    ///< one past the back
    bool empty() const { return head_ == end_; }
    std::size_t capacity() const { return buf_.size(); }

    /** @pre head() <= pos < end() */
    T &at(std::uint64_t pos) { return buf_[pos & mask_]; }
    const T &at(std::uint64_t pos) const { return buf_[pos & mask_]; }

    T &front() { return at(head_); }
    const T &front() const { return at(head_); }
    T &back() { return at(end_ - 1); }

    void
    push(const T &v)
    {
        if (end_ - head_ == buf_.size())
            grow();
        buf_[end_++ & mask_] = v;
    }

    /** @pre !empty() */
    void pop() { ++head_; }

  private:
    void
    grow()
    {
        // Positions stay absolute, so each element moves to the slot
        // its position selects under the wider mask.
        std::vector<T> wider(buf_.size() * 2);
        const std::uint64_t wider_mask = wider.size() - 1;
        for (std::uint64_t pos = head_; pos != end_; ++pos)
            wider[pos & wider_mask] = buf_[pos & mask_];
        buf_ = std::move(wider);
        mask_ = wider_mask;
    }

    std::vector<T> buf_;
    std::uint64_t mask_ = 0;
    std::uint64_t head_ = 0;
    std::uint64_t end_ = 0;
};

} // namespace vip

#endif // VIP_SIM_RING_HH
