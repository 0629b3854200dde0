// The accelerated ranking service (§4, §4.2).
//
// The ranking engine is partitioned across seven FPGAs plus one spare,
// mapped onto a ring of eight FPGAs along one dimension of the torus
// (Figure 5): Queue Manager + Feature Extraction at the head, two FFE
// stages, a compression stage, and three machine-learned scoring
// stages. Any of the eight servers can inject documents; requests route
// over the inter-FPGA network to the head, pass down the macropipeline
// stage by stage, and the final score (a 4-byte float plus counters)
// routes back to the injecting server (§4.1).

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/slot_table.h"
#include "common/stats.h"
#include "common/units.h"
#include "fabric/catapult_fabric.h"
#include "host/host_server.h"
#include "mgmt/mapping_manager.h"
#include "mgmt/pod_scheduler.h"
#include "obs/observability.h"
#include "rank/document.h"
#include "rank/model.h"
#include "rank/queue_manager.h"
#include "rank/software_ranker.h"
#include "service/trace_replay.h"
#include "shell/shell.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace catapult::service {

class StageRole;

/** Bitstream descriptor for a ranking stage, with Table 1 area/clock. */
fpga::Bitstream StageBitstream(rank::PipelineStage stage);

/** Completion record for one scored document. */
struct ScoreResult {
    bool ok = false;
    float score = 0.0f;
    Time latency = 0;          ///< Injection to response at user level.
    std::uint64_t trace_id = 0;
    /**
     * Pod that served the document — stamped by the FederatedDispatcher
     * with the pod that finally answered (failover included), so the
     * scatter-gather tier can build per-pod result lists. -1 for
     * completions below the federation (direct ring/pool injection).
     */
    int pod = -1;
};

/**
 * Completion callback of every injection layer (ring, pool, federation).
 * Captures up to 48 bytes stay inline, so a caller's lambda costs no
 * allocation; a layer that wraps another's callback keeps it in its own
 * slot table and hands down a wrapper capturing the slot index, never
 * the callback itself (a nested InlineFunction would be boxed).
 */
using CompletionFn = sim::InlineFunction<void(const ScoreResult&)>;

/**
 * Per-document in-flight context shared by the stage roles. The fabric
 * carries packets; heavyweight state (the request, the feature store
 * when functional scoring is on) lives here, in a slot of the ring's
 * context table. A packet carries its context's slot index and its
 * trace id — the id the Flight Data Recorder logs, so an FDR trace can
 * be replayed against the archive in a test environment (§3.6) — and a
 * lookup only hits while the slot still holds that trace id.
 */
struct DocContext {
    /** 0 while the slot is free. */
    std::uint64_t trace_id = 0;
    rank::CompressedRequest request;
    shell::NodeId injector = shell::kInvalidNode;
    int slot = -1;
    Time injected_at = 0;
    std::unique_ptr<rank::FeatureStore> store;  ///< null when timing-only
    /**
     * The document's model and functional pipeline, resolved by
     * RankingService::BindModel at its first stage; null before.
     */
    const rank::Model* model = nullptr;
    rank::RankingFunction* function = nullptr;
    float final_score = 0.0f;
    CompletionFn on_complete;
    /** Tracing context joined from request.query (0 = untraced). */
    std::uint64_t obs_trace = 0;
    std::uint64_t obs_span = 0;
    std::uint64_t obs_parent = 0;
};

class RankingService {
  public:
    static constexpr int kRingLength = 8;

    struct Config {
        /**
         * Deployment name; also prefixes role names so several rings of
         * the same pool stay distinguishable in the Mapping Manager.
         */
        std::string service_name = "bing.ranking";
        /** Run the full functional pipeline (bit-exact scores). */
        bool compute_scores = false;
        std::uint64_t model_seed = 0xCA7A9017ull;
        rank::ModelStore::Config models;
        rank::QueueManager::Config queue_manager;
        /**
         * Archive every (trace id, document, score) for offline FDR
         * trace replay (§3.6). Off by default: production keeps a
         * bounded archive on the serving host.
         */
        bool archive_traces = false;
        std::size_t trace_archive_capacity = 65'536;
        /**
         * First trace id minus one. ServicePool strides this per ring
         * and PodContext per pod, so trace ids are unique across a
         * whole federation — a federation-level FDR replay can resolve
         * any record to the archive holding its document.
         */
        std::uint64_t trace_id_base = 0;
        /**
         * Record archived traces here instead of the ring-local
         * archive (the pod-level archive PodContext owns for
         * cross-pod replay). The pointee must outlive the service.
         */
        TraceArchive* shared_archive = nullptr;
    };

    /**
     * The ring's torus region comes from the PodScheduler: callers no
     * longer hand-pick a `ring_row` — they request a placement (length
     * kRingLength) and pass the grant here. ServicePool does this for
     * every ring it owns.
     */
    RankingService(sim::Simulator* simulator, fabric::CatapultFabric* fabric,
                   std::vector<host::HostServer*> hosts,
                   mgmt::MappingManager* mapping_manager,
                   mgmt::RingPlacement placement, Config config);

    RankingService(const RankingService&) = delete;
    RankingService& operator=(const RankingService&) = delete;

    ~RankingService();

    /** Configure all eight FPGAs and start the service. */
    void Deploy(std::function<void(bool)> on_done);

    /**
     * Inject a document from ring position `ring_index` (0..7) on the
     * driver slot owned by `thread`. Completion (score or timeout)
     * arrives via `on_complete`.
     */
    host::SendStatus Inject(int ring_index, int thread,
                            const rank::CompressedRequest& request,
                            CompletionFn on_complete);

    /** Same, with an explicit slot (thread -> slots mapping bypassed). */
    host::SendStatus InjectOnSlot(int ring_index, int slot,
                                  const rank::CompressedRequest& request,
                                  CompletionFn on_complete);

    /** Pod-local node index of ring position `ring_index`. */
    int RingNode(int ring_index) const { return ring_nodes_[ring_index]; }

    /** The scheduler grant this ring occupies. */
    const mgmt::RingPlacement& placement() const { return placement_; }

    /** Torus row hosting the ring. */
    int ring_row() const { return placement_.row; }

    /** Stage hosted at ring position `ring_index` under current mapping. */
    rank::PipelineStage StageAt(int ring_index) const {
        return stage_at_[ring_index];
    }

    /** Ring position currently hosting `stage`. */
    int RingIndexOf(rank::PipelineStage stage) const;

    /**
     * Service Manager: rotate the ring after a machine failure so the
     * spare takes over the lost stage (§4.2) and redeploy.
     */
    void RotateRingAround(int failed_ring_index,
                          std::function<void(bool)> on_done);

    rank::ModelStore& models() { return models_; }
    /** The archive this ring records into (shared when configured). */
    const TraceArchive& trace_archive() const {
        return config_.shared_archive != nullptr ? *config_.shared_archive
                                                 : trace_archive_;
    }
    const rank::Model& DefaultModel();
    rank::QueueManager& queue_manager();
    /**
     * The in-flight context `packet` belongs to, or null when it is
     * gone (completed, or timed out and its slot reused).
     */
    DocContext* FindContext(const shell::Packet& packet);
    /** Documents injected and not yet completed or timed out. */
    std::size_t in_flight() const { return contexts_.live(); }

    /**
     * Resolve `ctx`'s model, and with compute_scores its functional
     * pipeline, if not yet done, so the stages after the first look
     * nothing up by model id.
     */
    void BindModel(DocContext& ctx);

    /** Per-stage service time for a given request (used by benches). */
    Time StageServiceTime(rank::PipelineStage stage,
                          const rank::CompressedRequest& request,
                          std::uint32_t model_id);

    /**
     * Wire payload leaving `stage`: the compressed document only travels
     * to the head; downstream hops carry feature/operand data (§4.1's
     * bandwidth-saving rationale applies inside the ring too).
     */
    Bytes StageOutputBytes(rank::PipelineStage stage, std::uint32_t model_id);
    static Bytes StageOutputBytes(rank::PipelineStage stage,
                                  const rank::Model& model);

    struct Counters {
        std::uint64_t injected = 0;
        std::uint64_t completed = 0;
        std::uint64_t timeouts = 0;
        std::uint64_t model_reloads = 0;
    };
    const Counters& counters() const { return counters_; }

    sim::Simulator* simulator() { return simulator_; }
    fabric::CatapultFabric* fabric() { return fabric_; }
    host::HostServer* host(int ring_index) {
        return hosts_[static_cast<std::size_t>(RingNode(ring_index))];
    }
    const Config& config() const { return config_; }

    /** Functional pipeline bound to a model (lazily built, cached). */
    rank::RankingFunction& FunctionFor(std::uint32_t model_id);

    /** Stage-role hook: count a pipeline-wide model reload. */
    void BumpModelReloads();

    /**
     * Stage-role hook: a cleared store the compression stage writes its
     * output into before swapping it with the document's store.
     */
    rank::FeatureStore& CompressionScratch();

    /** The stage role currently at ring position `ring_index`. */
    StageRole& role(int ring_index) {
        return *roles_[static_cast<std::size_t>(ring_index)];
    }

    /**
     * Attach this ring's observability shard. Traced documents (query
     * carrying trace context) open a "doc" span from injection to
     * score/timeout, keyed by the FDR-visible trace id; StageRole hops
     * nest under it.
     */
    void SetObservability(obs::ShardObs* obs);
    obs::ShardObs* observability() { return obs_; }

  private:
    friend class StageRole;

    void BuildRoles();
    /** The context in `index` while it still holds `trace_id`. */
    DocContext* ContextAt(std::uint32_t index, std::uint64_t trace_id);
    void ReleaseContext(std::uint32_t index);
    void OnResponse(std::uint32_t index, std::uint64_t trace_id);
    void CompleteTimeout(std::uint32_t index, std::uint64_t trace_id);

    sim::Simulator* simulator_;
    fabric::CatapultFabric* fabric_;
    std::vector<host::HostServer*> hosts_;
    mgmt::MappingManager* mapping_manager_;
    mgmt::RingPlacement placement_;
    Config config_;
    rank::ModelStore models_;
    rank::QueueManager queue_manager_;
    TraceArchive trace_archive_;

    std::array<int, kRingLength> ring_nodes_{};
    std::array<rank::PipelineStage, kRingLength> stage_at_{};
    std::vector<std::unique_ptr<StageRole>> roles_;
    /** In-flight document contexts; see DocContext. */
    SlotTable<DocContext> contexts_;
    /** Scratch output of the compression stage (functional path). */
    std::unique_ptr<rank::FeatureStore> compressed_scratch_;
    std::unordered_map<std::uint32_t, std::unique_ptr<rank::RankingFunction>>
        functions_;
    std::uint64_t next_trace_id_;  ///< Starts at trace_id_base + 1.
    Counters counters_;
    obs::ShardObs* obs_ = nullptr;
    obs::Histogram* obs_doc_latency_us_ = nullptr;
};

}  // namespace catapult::service
