// PoolArena's cross-thread contract (common/object_pool.h): a pooled
// block freed on another thread migrates to that thread's free list.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "common/object_pool.h"

namespace catapult {
namespace {

// A pooled block is recycled by whichever thread drops the last
// reference: the block migrates to the releasing thread's free list
// and is reused there; slab storage is immortal, so the migration is
// safe.
TEST(ObjectPool, BlocksMigrateToTheReleasingThread) {
    struct Payload {
        std::uint64_t a;
        std::uint64_t b;
    };
    auto first = MakePooled<Payload>(Payload{1, 2});
    void* raw = first.get();
    std::thread worker([&] {
        // Last reference dropped on the worker: the block enters the
        // worker's arena...
        first.reset();
        // ...and the worker's next allocation of the same size class
        // recycles exactly that block.
        auto second = MakePooled<Payload>(Payload{3, 4});
        EXPECT_EQ(static_cast<void*>(second.get()), raw);
        EXPECT_EQ(second->a, 3u);
    });
    worker.join();
    // The main thread's arena refills fresh storage, unaffected.
    auto third = MakePooled<Payload>(Payload{5, 6});
    EXPECT_EQ(third->a, 5u);
}

}  // namespace
}  // namespace catapult
