// Table of reusable slots addressed by index, with a free list.
//
// The document path keeps each in-flight item — a ring's document
// context, a Queue Manager entry, a pooled callback, a federated query,
// a gather — in a slot and hands the slot's index to whatever must find
// it again (a packet, an event, a wrapper callback). Finding it is an
// index, not a hash lookup; a freed slot keeps its element, so the
// storage that element owns (a request's feature vector, a callback's
// buffer) is reused by the next item instead of reallocated.
//
// Elements live in fixed chunks that never move, so a reference stays
// valid while the table grows (a completion callback may start a new
// item while its caller still holds the old one). Nothing is allocated
// until the first Acquire.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace catapult {

template <typename T>
class SlotTable {
  public:
    /** A free slot's index. Its element holds whatever it last held. */
    std::uint32_t Acquire() {
        if (!free_.empty()) {
            const std::uint32_t index = free_.back();
            free_.pop_back();
            return index;
        }
        if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<Chunk>());
        return size_++;
    }

    /** Return `index` to the free list; its element is left as is. */
    void Release(std::uint32_t index) { free_.push_back(index); }

    T& operator[](std::uint32_t index) {
        return (*chunks_[index / kChunk])[index % kChunk];
    }

    /** Slots ever handed out: every valid index is below this. */
    std::uint32_t size() const { return size_; }

    /** Slots acquired and not released. */
    std::size_t live() const { return size_ - free_.size(); }

  private:
    static constexpr std::uint32_t kChunk = 64;
    using Chunk = std::array<T, kChunk>;

    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::vector<std::uint32_t> free_;
    std::uint32_t size_ = 0;
};

}  // namespace catapult
