// PoolArena's cross-thread contract (common/object_pool.h): a pooled
// block freed on another thread migrates to that thread's free list.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>

#include "common/object_pool.h"

namespace catapult {
namespace {

// A pooled block is recycled by whichever thread releases it: the
// block migrates to the releasing thread's free list and is reused
// there; slab storage is immortal, so the migration is safe.
TEST(ObjectPool, BlocksMigrateToTheReleasingThread) {
    struct Payload {
        std::uint64_t a;
        std::uint64_t b;
    };
    using Arena = detail::PoolArena<Payload>;
    void* first = Arena::Instance().Allocate();
    const std::ptrdiff_t live = Arena::Instance().live();
    std::thread worker([&] {
        // Released on the worker: the block enters the worker's
        // arena...
        Arena::Instance().Release(first);
        // ...and the worker's next allocation of the same size class
        // recycles exactly that block.
        void* second = Arena::Instance().Allocate();
        EXPECT_EQ(second, first);
        auto* payload = ::new (second) Payload{3, 4};
        EXPECT_EQ(payload->a, 3u);
        Arena::Instance().Release(second);
    });
    worker.join();
    // The main thread's arena still counts the block it handed out;
    // it refills fresh storage, unaffected.
    EXPECT_EQ(Arena::Instance().live(), live);
    void* third = Arena::Instance().Allocate();
    EXPECT_NE(third, first);
    Arena::Instance().Release(third);
}

}  // namespace
}  // namespace catapult
