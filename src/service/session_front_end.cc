#include "service/session_front_end.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/log.h"

namespace catapult::service {

namespace {

/** Connection-pool slice carved out per session. */
constexpr int kThreadsPerSession = 4;

}  // namespace

SessionFrontEnd::SessionFrontEnd(sim::Simulator* simulator,
                                 FederatedDispatcher* dispatcher,
                                 Config config)
    : simulator_(simulator),
      config_(config),
      scatter_(simulator, dispatcher, config.scatter) {
    assert(simulator_ != nullptr);
    if (config_.driver_threads < 1) {
        FatalMisuse("SessionFrontEnd: driver_threads %d < 1",
                    config_.driver_threads);
    }
}

std::uint64_t SessionFrontEnd::OpenSession() {
    const std::uint64_t id = ++next_session_id_;
    Session session;
    // The session's connection pool: a contiguous slice of driver
    // threads, rotating over the drivers' thread space so concurrent
    // sessions land on disjoint slots until the space wraps.
    const int threads = std::min(kThreadsPerSession, config_.driver_threads);
    session.stats.connection_pool.reserve(
        static_cast<std::size_t>(threads));
    for (int j = 0; j < threads; ++j) {
        session.stats.connection_pool.push_back(
            (next_thread_offset_ + j) % config_.driver_threads);
    }
    next_thread_offset_ =
        (next_thread_offset_ + threads) % config_.driver_threads;
    sessions_.emplace(id, std::move(session));
    ++counters_.sessions_opened;
    return id;
}

bool SessionFrontEnd::CloseSession(std::uint64_t session_id) {
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return false;
    if (it->second.stats.in_flight > 0) {
        LOG_INFO("front_end")
            << "session " << session_id << " closed with "
            << it->second.stats.in_flight
            << " gather(s) in flight; they deliver to their callbacks "
               "but no longer update session accounting";
    }
    sessions_.erase(it);
    ++counters_.sessions_closed;
    return true;
}

SessionFrontEnd::Session* SessionFrontEnd::FindSession(std::uint64_t id) {
    const auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : &it->second;
}

void SessionFrontEnd::SetObservability(obs::ShardObs* obs) {
    obs_ = obs;
    scatter_.SetObservability(obs);
}

SessionFrontEnd::SessionStats SessionFrontEnd::session_stats(
    std::uint64_t session_id) const {
    const auto it = sessions_.find(session_id);
    return it == sessions_.end() ? SessionStats{} : it->second.stats;
}

std::uint64_t SessionFrontEnd::Submit(
    std::uint64_t session_id, const rank::Query& query,
    std::vector<rank::CompressedRequest> docs, std::size_t top_k,
    Time budget,
    std::function<void(const ScatterGatherDispatcher::GatherResult&)>
        on_complete) {
    Session* session = FindSession(session_id);
    if (session == nullptr) {
        ++counters_.refused;
        return 0;
    }
    if (config_.max_gathers_per_session > 0 &&
        session->stats.in_flight >= config_.max_gathers_per_session) {
        ++session->stats.refused;
        ++counters_.refused;
        return 0;
    }
    ++session->stats.submitted;
    ++session->stats.in_flight;
    ++counters_.submitted;
    // Completion and straggler hooks re-resolve the session by id: the
    // session may have closed (or a gather may outlive this front end's
    // interest in it) by the time a shard answers, and ids are never
    // reused, so a stale lookup just misses.
    auto wrapped = [this, session_id, on_complete = std::move(on_complete)](
                       const ScatterGatherDispatcher::GatherResult& result) {
        if (Session* open = FindSession(session_id)) {
            --open->stats.in_flight;
            ++open->stats.delivered;
            if (result.partial) ++open->stats.partial;
        }
        if (on_complete) on_complete(result);
    };
    auto straggler = [this, session_id] {
        if (Session* open = FindSession(session_id)) {
            ++open->stats.stragglers;
        }
    };
    rank::Query traced = query;
    if (obs_ != nullptr && obs_->tracing() && traced.obs_trace == 0) {
        // Root the query's timeline at the door: the scatter tier joins
        // this trace, and the "session" instant pins which session the
        // whole tree belongs to.
        traced.obs_trace = obs_->tracer.NextTraceId();
        obs_->tracer.Instant("session", traced.obs_trace, 0, 0,
                             simulator_->Now(),
                             static_cast<std::int64_t>(session_id),
                             static_cast<std::int64_t>(docs.size()));
    }
    // The wrapper is 48 bytes, so it rides inline in the scatter tier's
    // callback.
    return scatter_.Submit(traced, std::move(docs), top_k, budget,
                           std::move(wrapped),
                           &session->stats.connection_pool,
                           std::move(straggler));
}

}  // namespace catapult::service
