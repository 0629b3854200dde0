// FIFO ring buffer that allocates nothing until its first push.
//
// std::deque allocates a node map and a 512-byte chunk on construction,
// so a shell holding one per DMA output slot, link direction and
// request channel paid ~44 KiB before carrying a single packet. This
// queue keeps its elements in a power-of-two vector that grows by
// doubling on demand and is reused from then on, so steady-state
// traffic allocates nothing either. Elements must be default
// constructible and move assignable; a popped cell is reset to T{} so
// it releases what it held (packet handles, callbacks) at once.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace catapult {

template <typename T>
class RingQueue {
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T& front() { return cells_[head_]; }
    const T& front() const { return cells_[head_]; }
    T& back() { return cells_[(head_ + size_ - 1) & mask()]; }

    void push_back(T value) {
        if (size_ == cells_.size()) Grow();
        cells_[(head_ + size_) & mask()] = std::move(value);
        ++size_;
    }

    /** Remove and return the oldest element; the queue must be non-empty. */
    T pop_front() {
        T value = std::move(cells_[head_]);
        cells_[head_] = T{};
        head_ = (head_ + 1) & mask();
        --size_;
        return value;
    }

    /** Remove and return the newest element; the queue must be non-empty. */
    T pop_back() {
        T& cell = back();
        T value = std::move(cell);
        cell = T{};
        --size_;
        return value;
    }

    /** Drop every element, keeping the storage. */
    void clear() {
        while (size_ > 0) pop_front();
        head_ = 0;
    }

  private:
    std::size_t mask() const { return cells_.size() - 1; }

    void Grow() {
        std::vector<T> grown(cells_.empty() ? 8 : cells_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i) {
            grown[i] = std::move(cells_[(head_ + i) & mask()]);
        }
        cells_ = std::move(grown);
        head_ = 0;
    }

    std::vector<T> cells_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace catapult
