// Query dispatcher: the sharding front end of a ServicePool.
//
// The Service Manager (§4.2) "ensures that the entire service is
// healthy and makes the ranking service available to the rest of the
// datacenter"; at pod level that means spreading query traffic across
// every healthy ring. The dispatcher is the policy seam: given a
// snapshot of ring states it picks the target ring for one document.
// Rings a failure drained out of rotation are simply never picked, so
// redirect-on-failure falls out of the same path as steady-state
// sharding.

#pragma once

#include <cstdint>
#include <vector>

namespace catapult::service {

/** How the dispatcher shards documents across rings. */
enum class DispatchPolicy {
    kRoundRobin,        ///< Cycle through available rings.
    kLeastInFlight,     ///< Ring with the fewest outstanding documents.
    kInjectorLocality,  ///< Nearest ring (torus rows) to the injector.
};

const char* ToString(DispatchPolicy policy);

/** Per-ring state the pool exposes to the dispatcher each pick. */
struct RingView {
    bool available = true;  ///< In rotation (false while draining/recovering).
    int in_flight = 0;      ///< Outstanding documents on the ring.
    int row = 0;            ///< Torus row hosting the ring.
};

class QueryDispatcher {
  public:
    /**
     * `torus_rows` bounds the row-distance metric for the locality
     * policy (rows wrap on the torus).
     */
    explicit QueryDispatcher(DispatchPolicy policy, int torus_rows = 6);

    /**
     * Pick the ring for one document, or -1 when no ring is available.
     * `preferred_row` is the injector's torus row (locality policy);
     * pass -1 when the caller has no locality preference.
     */
    int Pick(const std::vector<RingView>& rings, int preferred_row = -1);

    DispatchPolicy policy() const { return policy_; }

    struct Counters {
        std::uint64_t no_ring_available = 0;
    };
    const Counters& counters() const { return counters_; }

  private:
    int RowDistance(int a, int b) const;

    DispatchPolicy policy_;
    int torus_rows_;
    std::size_t rr_cursor_ = 0;
    Counters counters_;
};

}  // namespace catapult::service
