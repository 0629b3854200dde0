#include "service/scatter_gather.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "common/log.h"

namespace catapult::service {

namespace {

/** Spacing of one shard's re-attempts after an up-front refusal. */
constexpr Time kRejectRetryBackoff = Microseconds(50);
/** Thread rotation when the caller provides no connection pool. */
constexpr int kDefaultThreads = 32;

}  // namespace

void ResultMerger::MergeInPlace(std::vector<std::vector<RankedDoc>>& per_pod,
                                std::size_t k, std::vector<RankedDoc>& out) {
    // Canonical per-source order: score descending, doc id ascending.
    // Sources arrive in completion order (gather callbacks), so the
    // merger owns the canonicalization rather than trusting callers.
    for (auto& list : per_pod) {
        std::sort(list.begin(), list.end(),
                  [](const RankedDoc& a, const RankedDoc& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.doc_id < b.doc_id;
                  });
    }
    std::size_t total = 0;
    for (const auto& list : per_pod) total += list.size();
    out.clear();
    out.reserve(std::min(k, total));
    cursor_.assign(per_pod.size(), 0);
    while (out.size() < k) {
        // The highest score still unmerged across every source.
        bool any = false;
        float best = 0.0f;
        for (std::size_t p = 0; p < per_pod.size(); ++p) {
            if (cursor_[p] >= per_pod[p].size()) continue;
            const float s = per_pod[p][cursor_[p]].score;
            if (!any || s > best) {
                best = s;
                any = true;
            }
        }
        if (!any) break;
        // Sources tied at `best`, ascending (pod id, source index) —
        // the deterministic starting order of the round-robin.
        tied_.clear();
        for (std::size_t p = 0; p < per_pod.size(); ++p) {
            if (cursor_[p] < per_pod[p].size() &&
                per_pod[p][cursor_[p]].score == best) {
                tied_.push_back(p);
            }
        }
        std::sort(tied_.begin(), tied_.end(),
                  [&](std::size_t a, std::size_t b) {
                      const int pa = per_pod[a][cursor_[a]].pod;
                      const int pb = per_pod[b][cursor_[b]].pod;
                      if (pa != pb) return pa < pb;
                      return a < b;
                  });
        // Round-robin interleave: one doc per tied source per round; a
        // source leaves the cycle when its next doc scores differently
        // (each source's docs within the run stay doc-id ascending by
        // the canonical sort above).
        while (!tied_.empty() && out.size() < k) {
            for (std::size_t j = 0; j < tied_.size() && out.size() < k;) {
                const std::size_t p = tied_[j];
                out.push_back(per_pod[p][cursor_[p]++]);
                if (cursor_[p] >= per_pod[p].size() ||
                    per_pod[p][cursor_[p]].score != best) {
                    tied_.erase(tied_.begin() +
                                static_cast<std::ptrdiff_t>(j));
                } else {
                    ++j;
                }
            }
        }
    }
}

ScatterGatherDispatcher::ScatterGatherDispatcher(
    sim::Simulator* simulator, FederatedDispatcher* dispatcher, Config config)
    : simulator_(simulator), dispatcher_(dispatcher), config_(config) {
    assert(simulator_ != nullptr);
    assert(dispatcher_ != nullptr);
    assert(config_.max_reject_retries >= 0);
}

void ScatterGatherDispatcher::SetObservability(obs::ShardObs* obs) {
    obs_ = obs;
    obs_gather_latency_us_ =
        obs == nullptr
            ? nullptr
            : obs->registry.histogram("frontend.gather_latency_us");
}

std::uint64_t ScatterGatherDispatcher::Submit(
    const rank::Query& query, std::vector<rank::CompressedRequest> docs,
    std::size_t top_k, Time budget, GatherFn on_complete,
    const std::vector<int>* connection_pool,
    std::function<void()> on_straggler) {
    ++counters_.submitted;
    const std::uint32_t slot = gathers_.Acquire();
    Gather& gather = gathers_[slot];
    gather.outstanding = 0;
    gather.id = ++next_gather_id_;
    gather.top_k = top_k;
    gather.submitted_at = simulator_->Now();
    gather.deadline_event = sim::EventHandle();
    gather.delivered = false;
    gather.docs = std::move(docs);
    gather.accepted = 0;
    gather.rejected = 0;
    gather.answered = 0;
    gather.failed = 0;
    gather.on_complete = std::move(on_complete);
    gather.on_straggler = std::move(on_straggler);
    gather.obs_trace = 0;
    gather.obs_span = 0;
    gather.obs_parent = 0;

    const std::size_t n = gather.docs.size();
    const int pod_count = dispatcher_->pod_count();
    // Cleared, not reallocated: the slot's per-pod lists keep their
    // storage from the gathers it served before.
    gather.per_pod.resize(static_cast<std::size_t>(pod_count));
    for (auto& list : gather.per_pod) list.clear();
    gather.shards.assign(static_cast<std::size_t>(pod_count), PodShard{});
    for (int p = 0; p < pod_count; ++p) {
        gather.shards[static_cast<std::size_t>(p)].pod = p;
    }
    gather.doc_state.assign(n, DocState::kPending);
    gather.doc_assigned.assign(n, -1);
    gather.doc_thread.assign(n, 0);

    if (obs_ != nullptr && obs_->tracing()) {
        // Join the caller's trace when the query already carries one
        // (the session front end roots the timeline); otherwise this
        // gather roots a fresh trace.
        gather.obs_trace = query.obs_trace != 0 ? query.obs_trace
                                                : obs_->tracer.NextTraceId();
        gather.obs_parent = query.obs_parent;
        gather.obs_span = obs_->tracer.NextSpanId();
    }

    // Partition across the pods eligible *now*: a shed, latched-out or
    // capped pod gets no shard. The assignment is only a preference —
    // the federated dispatcher falls back to its normal policy (and
    // its failover machinery) when the target refuses or dies — but
    // the per-pod `assigned` accounting pins who was supposed to
    // answer, which is what the partial result reports as missing.
    dispatcher_->EligiblePods(eligible_);
    const std::vector<int>& eligible = eligible_;
    for (std::size_t i = 0; i < n; ++i) {
        gather.docs[i].query = query;
        gather.docs[i].query.obs_trace = gather.obs_trace;
        gather.docs[i].query.obs_parent = gather.obs_span;
        if (!eligible.empty()) {
            const int target = eligible[i % eligible.size()];
            gather.doc_assigned[i] = target;
            ++gather.shards[static_cast<std::size_t>(target)].assigned;
        }
        gather.doc_thread[i] =
            connection_pool != nullptr && !connection_pool->empty()
                ? (*connection_pool)[i % connection_pool->size()]
                : static_cast<int>(i) % kDefaultThreads;
    }

    const std::uint64_t id = gather.id;
    const std::uint32_t generation = gather.generation;
    for (std::size_t i = 0; i < n; ++i) {
        InjectShard(slot, static_cast<std::uint32_t>(i),
                    config_.max_reject_retries);
    }

    // Delivered synchronously (every shard refused with no retry
    // budget): the slot may already serve another gather.
    if (GatherAt(slot, generation) == nullptr || gather.delivered) return id;
    if (AllResolved(gather)) {
        // Everything refused up front (or the set was empty): deliver
        // asynchronously so the caller always sees the gather id before
        // its completion.
        simulator_->ScheduleAfter(0, [this, slot, generation] {
            Gather* g = GatherAt(slot, generation);
            if (g != nullptr && !g->delivered) DeliverGather(slot);
        });
        return id;
    }
    if (budget > 0) {
        // kTimeout priority: shards completing at exactly the budget
        // instant merge first — a gather whose last pod answers exactly
        // at the deadline is complete, not partial.
        gather.deadline_event = simulator_->ScheduleAt(
            gather.submitted_at + budget,
            [this, slot, generation] {
                Gather* g = GatherAt(slot, generation);
                if (g != nullptr && !g->delivered) DeliverGather(slot);
            },
            sim::EventPriority::kTimeout);
    }
    return id;
}

ScatterGatherDispatcher::Gather* ScatterGatherDispatcher::GatherAt(
    std::uint32_t slot, std::uint32_t generation) {
    Gather& gather = gathers_[slot];
    return gather.generation == generation ? &gather : nullptr;
}

void ScatterGatherDispatcher::MaybeRelease(std::uint32_t slot) {
    Gather& gather = gathers_[slot];
    if (!gather.delivered || gather.outstanding > 0) return;
    ++gather.generation;
    gather.on_complete = nullptr;
    gather.on_straggler = nullptr;
    gathers_.Release(slot);
}

void ScatterGatherDispatcher::InjectShard(std::uint32_t slot,
                                          std::uint32_t index,
                                          int retries_left) {
    Gather& gather = gathers_[slot];
    const int target = gather.doc_assigned[index];
    const auto status = dispatcher_->InjectPreferring(
        target, gather.doc_thread[index], gather.docs[index],
        [this, slot, index](const ScoreResult& result) {
            OnShardResult(slot, index, result);
        });
    if (status == host::SendStatus::kOk) {
        gather.doc_state[index] = DocState::kInFlight;
        ++gather.accepted;
        ++gather.outstanding;
        ++counters_.docs_scattered;
        return;
    }
    if (retries_left > 0) {
        // Transient refusals (slot contention, a momentary cap) clear
        // in microseconds; burn a bounded retry instead of reporting a
        // hole in the result. The retry dies quietly if the gather was
        // delivered meanwhile — the deadline already counted this
        // shard missing, and scattering it late would only manufacture
        // a straggler.
        simulator_->ScheduleAfter(
            kRejectRetryBackoff,
            [this, slot, generation = gather.generation, index,
             retries_left] {
                const Gather* g = GatherAt(slot, generation);
                if (g == nullptr || g->delivered) return;
                InjectShard(slot, index, retries_left - 1);
            });
        return;
    }
    gather.doc_state[index] = DocState::kRejected;
    ++gather.rejected;
    if (AllResolved(gather) && !gather.delivered) DeliverGather(slot);
}

void ScatterGatherDispatcher::OnShardResult(std::uint32_t slot,
                                            std::uint32_t index,
                                            const ScoreResult& result) {
    Gather& gather = gathers_[slot];
    --gather.outstanding;
    if (gather.delivered) {
        // Straggler: the deadline already spoke for this shard. It is
        // accounted — here and to the gather's hook — but its score is
        // dropped, the callback has already fired, and nothing leaks
        // (this completion releases the shard's hold on the gather).
        ++counters_.stragglers;
        if (gather.on_straggler) gather.on_straggler();
        MaybeRelease(slot);
        return;
    }
    if (result.ok) {
        gather.doc_state[index] = DocState::kAnswered;
        ++gather.answered;
        ++counters_.docs_answered;
        // Attribution follows the pod that finally answered (failover
        // included); fall back to the assignee if the result predates
        // pod stamping (a pool-level completion path).
        int pod = result.pod;
        if (pod < 0 || pod >= static_cast<int>(gather.per_pod.size())) {
            pod = gather.doc_assigned[index];
        }
        if (pod >= 0 && pod < static_cast<int>(gather.per_pod.size())) {
            gather.per_pod[static_cast<std::size_t>(pod)].push_back(
                RankedDoc{gather.docs[index].doc_id, result.score, pod});
            ++gather.shards[static_cast<std::size_t>(pod)].answered;
        }
    } else {
        gather.doc_state[index] = DocState::kFailed;
        ++gather.failed;
        ++counters_.docs_failed;
    }
    if (AllResolved(gather)) DeliverGather(slot);
}

void ScatterGatherDispatcher::DeliverGather(std::uint32_t slot) {
    Gather& gather = gathers_[slot];
    gather.delivered = true;
    if (gather.deadline_event.valid()) {
        simulator_->Cancel(gather.deadline_event);
    }
    const std::uint32_t result_slot = results_.Acquire();
    GatherResult& result = results_[result_slot];
    result.gather_id = gather.id;
    result.doc_count = gather.docs.size();
    result.accepted = gather.accepted;
    result.rejected = gather.rejected;
    result.answered = gather.answered;
    result.partial = gather.answered < gather.docs.size();
    // Missing attribution: every assigned shard that produced no merged
    // score — still outstanding at the deadline, failed, or rejected —
    // is charged to the pod it was assigned to. Sum(answered) +
    // Sum(missing) covers every assigned shard exactly once even when
    // failover moved a shard between pods.
    for (std::size_t i = 0; i < gather.docs.size(); ++i) {
        if (gather.doc_state[i] == DocState::kAnswered) continue;
        const int assigned = gather.doc_assigned[i];
        if (assigned >= 0) {
            ++gather.shards[static_cast<std::size_t>(assigned)].missing;
        }
    }
    result.pods = gather.shards;
    // The merge itself is front-door host code, measured in wall time:
    // bench_scatter_gather gates it against the end-to-end p50 the
    // federation spends producing the scores being merged.
    const auto merge_start = std::chrono::steady_clock::now();
    merger_.MergeInPlace(gather.per_pod, gather.top_k, result.top);
    const auto merge_end = std::chrono::steady_clock::now();
    counters_.merge_wall_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(merge_end -
                                                             merge_start)
            .count());
    ++counters_.merges;
    result.latency = simulator_->Now() - gather.submitted_at;
    ++counters_.delivered;
    if (result.partial) ++counters_.partial;
    if (obs_gather_latency_us_ != nullptr) {
        obs_gather_latency_us_->ObserveLatency(result.latency);
    }
    if (gather.obs_span != 0) {
        obs_->tracer.Instant("merge", gather.obs_trace, gather.obs_span, 0,
                             simulator_->Now(),
                             static_cast<std::int64_t>(result.top.size()),
                             static_cast<std::int64_t>(result.answered));
        obs_->tracer.Span("gather", gather.obs_trace, gather.obs_span,
                          gather.obs_parent, 0, gather.submitted_at,
                          simulator_->Now(), result.partial ? 0 : 1,
                          static_cast<std::int64_t>(result.doc_count));
    }
    // The callback may submit again and reuse slots; nothing of this
    // gather is read after it.
    GatherFn on_complete = std::move(gather.on_complete);
    MaybeRelease(slot);
    if (on_complete) on_complete(result);
    results_.Release(result_slot);
}

}  // namespace catapult::service
