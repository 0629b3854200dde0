#include "service/query_dispatcher.h"

#include <cassert>
#include <cstdlib>

namespace catapult::service {

const char* ToString(DispatchPolicy policy) {
    switch (policy) {
      case DispatchPolicy::kRoundRobin: return "round-robin";
      case DispatchPolicy::kLeastInFlight: return "least-in-flight";
      case DispatchPolicy::kInjectorLocality: return "injector-locality";
    }
    return "?";
}

QueryDispatcher::QueryDispatcher(DispatchPolicy policy, int torus_rows)
    : policy_(policy), torus_rows_(torus_rows) {
    assert(torus_rows_ > 0);
}

int QueryDispatcher::RowDistance(int a, int b) const {
    const int direct = std::abs(a - b);
    return direct < torus_rows_ - direct ? direct : torus_rows_ - direct;
}

int QueryDispatcher::Pick(const std::vector<RingView>& rings,
                          int preferred_row) {
    const std::size_t n = rings.size();
    int best = -1;
    switch (policy_) {
      case DispatchPolicy::kRoundRobin:
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = (rr_cursor_ + k) % n;
            if (rings[i].available) {
                best = static_cast<int>(i);
                rr_cursor_ = i + 1;  // next pick starts past this ring
                break;
            }
        }
        break;
      case DispatchPolicy::kLeastInFlight:
        for (std::size_t i = 0; i < n; ++i) {
            if (!rings[i].available) continue;
            if (best < 0 ||
                rings[i].in_flight <
                    rings[static_cast<std::size_t>(best)].in_flight) {
                best = static_cast<int>(i);
            }
        }
        break;
      case DispatchPolicy::kInjectorLocality:
        for (std::size_t i = 0; i < n; ++i) {
            if (!rings[i].available) continue;
            if (best < 0) {
                best = static_cast<int>(i);
                continue;
            }
            const RingView& champ = rings[static_cast<std::size_t>(best)];
            if (preferred_row >= 0) {
                const int di = RowDistance(rings[i].row, preferred_row);
                const int dc = RowDistance(champ.row, preferred_row);
                if (di != dc) {
                    if (di < dc) best = static_cast<int>(i);
                    continue;
                }
            }
            // Same distance (or no preference): fall back to load.
            if (rings[i].in_flight < champ.in_flight) {
                best = static_cast<int>(i);
            }
        }
        break;
    }
    if (best < 0) ++counters_.no_ring_available;
    return best;
}

}  // namespace catapult::service
