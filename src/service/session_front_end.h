// Session front end: the client-facing door of the federation.
//
// The datacenter-scale shape of the paper's service (§2, §4.2): a
// front-end machine owns a user's connection, holds per-session state,
// and fans each query's document set out across the ranking fleet —
// the session/connection handling mirrors a metasearch core (pazpar2's
// session + per-target connection pooling is the exemplar shape).
//
// A session owns
//  * a slice of driver threads — its *connection pool* into the
//    federation's host slot drivers, so concurrent sessions do not
//    contend on the same DMA slots;
//  * an in-flight gather cap (one user cannot monopolize the door);
//  * its own accounting: delivered/partial gathers, refusals, and
//    stragglers (shards that answered after their gather's deadline).
//
// Sessions survive partial results by construction: a gather delivered
// at its deadline — even empty — leaves the session fully usable, and
// a straggler landing later updates accounting without touching any
// delivered result. Closing a session with gathers still in flight is
// safe: their completions simply no longer find session state to
// update (ids are never reused).

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "rank/document.h"
#include "service/scatter_gather.h"
#include "sim/simulator.h"

namespace catapult::service {

class SessionFrontEnd {
  public:
    struct Config {
        ScatterGatherDispatcher::Config scatter;
        /** Driver threads registered with each host's slot driver. */
        int driver_threads = 32;
        /** Concurrent gathers one session may hold open (0 = off). */
        int max_gathers_per_session = 8;
    };

    struct SessionStats {
        std::uint64_t submitted = 0;
        std::uint64_t delivered = 0;
        /** Gathers delivered partial (deadline or lost shards). */
        std::uint64_t partial = 0;
        /** Submits refused (per-session in-flight cap). */
        std::uint64_t refused = 0;
        /** Shards that completed after their gather was delivered. */
        std::uint64_t stragglers = 0;
        int in_flight = 0;
        /** The session's driver-thread connection pool. */
        std::vector<int> connection_pool;
    };

    struct Counters {
        std::uint64_t sessions_opened = 0;
        std::uint64_t sessions_closed = 0;
        std::uint64_t submitted = 0;
        std::uint64_t refused = 0;
    };

    SessionFrontEnd(sim::Simulator* simulator,
                    FederatedDispatcher* dispatcher, Config config);

    SessionFrontEnd(const SessionFrontEnd&) = delete;
    SessionFrontEnd& operator=(const SessionFrontEnd&) = delete;

    /**
     * Open a session: allocates its connection pool (a rotating slice
     * of the driver threads) and returns its id (> 0, never reused).
     */
    std::uint64_t OpenSession();

    /**
     * Close a session. Gathers still in flight run to completion and
     * deliver to their callbacks; only the session's accounting stops.
     * Returns false for an unknown (or already closed) id.
     */
    bool CloseSession(std::uint64_t session_id);

    /**
     * Submit one query's document set through `session_id`: scatter
     * across pods, gather, merge top-k, deliver within `budget` (0 =
     * no deadline; a partial result is delivered at the deadline).
     * Returns the gather id, or 0 when refused (unknown session, or
     * the session is at its in-flight cap).
     */
    std::uint64_t Submit(
        std::uint64_t session_id, const rank::Query& query,
        std::vector<rank::CompressedRequest> docs, std::size_t top_k,
        Time budget,
        std::function<void(const ScatterGatherDispatcher::GatherResult&)>
            on_complete);

    bool SessionOpen(std::uint64_t session_id) const {
        return sessions_.find(session_id) != sessions_.end();
    }
    /** Snapshot of one session's accounting (empty stats if unknown). */
    SessionStats session_stats(std::uint64_t session_id) const;

    ScatterGatherDispatcher& scatter() { return scatter_; }
    const Counters& counters() const { return counters_; }
    const Config& config() const { return config_; }

    /**
     * Attach the front door's observability shard (forwarded to the
     * scatter tier). Each traced submit roots its query's timeline here
     * and stamps a "session" instant carrying the session id, so the
     * stitched trace ties every gather back to the owning session.
     */
    void SetObservability(obs::ShardObs* obs);

  private:
    struct Session {
        SessionStats stats;
    };

    Session* FindSession(std::uint64_t id);

    sim::Simulator* simulator_;
    Config config_;
    ScatterGatherDispatcher scatter_;
    std::unordered_map<std::uint64_t, Session> sessions_;
    std::uint64_t next_session_id_ = 0;
    int next_thread_offset_ = 0;
    Counters counters_;
    obs::ShardObs* obs_ = nullptr;
};

}  // namespace catapult::service
