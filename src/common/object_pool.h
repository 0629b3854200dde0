// Slab-backed free-list pooling for hot-path objects.
//
// Every document makes a few fabric packets; at federation scale that
// is millions of malloc/free pairs per simulated second of load. A
// PoolArena<T> hands out blocks of one size class from a thread-local
// slab free list and takes them back, so steady-state traffic
// allocates nothing: shell::PacketPtr draws its packets from one.
//
// Under AddressSanitizer the free list poisons parked blocks, so a
// use-after-release-into-pool fails the sanitized job just like a
// use-after-free would have without pooling.
//
// Thread model: every thread has its own arena, and Allocate/Release
// always touch the *calling* thread's arena — there is no shared free
// list and therefore no lock. A block allocated on thread A and
// released on thread B simply migrates: it joins B's free list and is
// recycled by B from then on. That is safe because slabs are never
// freed (arenas are intentionally leaked, see Instance()), so the
// block's storage outlives every thread, provided the caller orders
// the release after the last use on A (a join or a lock gives the
// happens-before edge). The only cost of migration is
// capacity drift — a thread that only frees grows its list while the
// allocating thread refills — which is bounded by in-flight object
// count, not by run length.

#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define CATAPULT_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CATAPULT_POOL_ASAN 1
#endif
#endif

#ifdef CATAPULT_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace catapult {

namespace detail {

/**
 * Global root keeping every arena ever created reachable, so the
 * intentional arena leak (see PoolArena::Instance) stays invisible to
 * LeakSanitizer even after the owning thread has exited and its TLS
 * pointer is gone. Locked once per thread per size class — at arena
 * construction — never on the allocate/release path.
 */
inline void RegisterArena(void* arena) {
    static std::mutex* mutex = new std::mutex;
    static std::vector<void*>* registry = new std::vector<void*>;
    std::lock_guard<std::mutex> lock(*mutex);
    registry->push_back(arena);
}

/**
 * One size class: recycled blocks of exactly sizeof(Block) bytes, raw
 * storage the caller constructs a Block in. Every pooled type gets its
 * own arena.
 */
template <typename Block>
class PoolArena {
  public:
    static constexpr std::size_t kSlabObjects = 64;

    void* Allocate() {
        if (free_list_.empty()) Refill();
        void* block = free_list_.back();
        free_list_.pop_back();
        ++live_;
#ifdef CATAPULT_POOL_ASAN
        __asan_unpoison_memory_region(block, sizeof(Block));
#endif
        return block;
    }

    void Release(void* block) {
#ifdef CATAPULT_POOL_ASAN
        __asan_poison_memory_region(block, sizeof(Block));
#endif
        free_list_.push_back(block);
        --live_;
    }

    /**
     * Blocks handed out by this arena and not yet released to it. A
     * block released on another thread lowers that thread's count, so
     * read it from the one thread that both allocates and releases.
     */
    std::ptrdiff_t live() const { return live_; }

    /**
     * The arena is intentionally never destroyed: its blocks may be
     * owned by objects (scheduled callbacks, parked handles) whose
     * destruction order versus thread-local teardown is unknowable —
     * and blocks released on another thread migrate to *that* thread's
     * arena, so storage must outlive every thread. The global registry
     * keeps each arena reachable after its thread exits, so
     * LeakSanitizer stays quiet.
     */
    static PoolArena& Instance() {
        static thread_local PoolArena* arena = [] {
            auto* created = new PoolArena;
            RegisterArena(created);
            return created;
        }();
        return *arena;
    }

  private:
    void Refill() {
        static_assert(alignof(Block) <= alignof(std::max_align_t),
                      "over-aligned types cannot use the pool");
        slabs_.push_back(
            std::make_unique<unsigned char[]>(kSlabObjects * sizeof(Block)));
        unsigned char* base = slabs_.back().get();
        for (std::size_t i = 0; i < kSlabObjects; ++i) {
            free_list_.push_back(base + i * sizeof(Block));
        }
#ifdef CATAPULT_POOL_ASAN
        __asan_poison_memory_region(base, kSlabObjects * sizeof(Block));
#endif
    }

    std::vector<void*> free_list_;
    std::vector<std::unique_ptr<unsigned char[]>> slabs_;
    std::ptrdiff_t live_ = 0;
};

}  // namespace detail

}  // namespace catapult
