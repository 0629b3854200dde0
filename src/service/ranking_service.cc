#include "service/ranking_service.h"

#include <cassert>
#include <cstring>

#include "common/log.h"
#include "service/stage_role.h"

namespace catapult::service {

using rank::PipelineStage;

namespace {

/**
 * Per-document software cost paid by the injecting thread before the
 * slot fills (§4: "performs the software portion of the scoring,
 * converts the document into a format suitable for FPGA evaluation, and
 * then injects the document").
 */
constexpr Time kInjectionOverhead = Microseconds(12);

/** Table 1: FPGA area usage and clock frequencies per ranking stage. */
struct StageSynthesis {
    fpga::Utilization area;
    double clock_mhz;
};

StageSynthesis Table1(PipelineStage stage) {
    switch (stage) {
      case PipelineStage::kFeatureExtraction: return {{74, 49, 12}, 150};
      case PipelineStage::kFfe0: return {{86, 50, 29}, 125};
      case PipelineStage::kFfe1: return {{86, 50, 29}, 125};
      case PipelineStage::kCompression: return {{20, 64, 0}, 180};
      case PipelineStage::kScoring0: return {{47, 88, 0}, 166};
      case PipelineStage::kScoring1: return {{47, 88, 0}, 166};
      case PipelineStage::kScoring2: return {{48, 90, 1}, 166};
      case PipelineStage::kSpare: return {{10, 15, 0}, 175};
    }
    return {{0, 0, 0}, 0};
}

}  // namespace

fpga::Bitstream StageBitstream(PipelineStage stage) {
    const StageSynthesis synth = Table1(stage);
    return fpga::MakeBitstream(
        0xB175000 + static_cast<std::uint64_t>(stage),
        std::string("rank.") + ToString(stage), synth.area,
        Frequency::MHz(synth.clock_mhz));
}

RankingService::RankingService(sim::Simulator* simulator,
                               fabric::CatapultFabric* fabric,
                               std::vector<host::HostServer*> hosts,
                               mgmt::MappingManager* mapping_manager,
                               mgmt::RingPlacement placement, Config config)
    : simulator_(simulator),
      fabric_(fabric),
      hosts_(std::move(hosts)),
      mapping_manager_(mapping_manager),
      placement_(placement),
      config_(std::move(config)),
      models_(config_.models),
      queue_manager_(config_.queue_manager),
      trace_archive_(config_.trace_archive_capacity),
      next_trace_id_(config_.trace_id_base + 1) {
    assert(simulator_ != nullptr && fabric_ != nullptr);
    assert(mapping_manager_ != nullptr);
    assert(placement_.valid() && placement_.length == kRingLength &&
           "ring placement must be a PodScheduler grant of kRingLength nodes");

    const auto& topology = fabric_->topology();
    const int start = topology.IndexOf(
        fabric::TorusCoord{placement_.row, placement_.head_col});
    const auto ring = topology.RingAlongRow(start, kRingLength);
    for (int i = 0; i < kRingLength; ++i) {
        ring_nodes_[static_cast<std::size_t>(i)] = ring[static_cast<std::size_t>(i)];
        stage_at_[static_cast<std::size_t>(i)] = static_cast<PipelineStage>(i);
    }
    BuildRoles();
}

RankingService::~RankingService() {
    for (const auto& role : roles_) {
        fabric_->shell(ring_nodes_[static_cast<std::size_t>(role->ring_index())])
            .SetRole(nullptr);
    }
}

void RankingService::BuildRoles() {
    for (const auto& role : roles_) {
        fabric_->shell(ring_nodes_[static_cast<std::size_t>(role->ring_index())])
            .SetRole(nullptr);
    }
    roles_.clear();
    // The rebuilt head role starts with empty DRAM queues (its FPGA was
    // just reconfigured), so the shared Queue Manager's policy state
    // must restart too — stale entries would dispatch trace ids whose
    // packets died with the old role. The orphaned documents surface as
    // host timeouts (§3.2), which is the failover signal upstream
    // layers already handle.
    queue_manager_.Reset();
    for (int i = 0; i < kRingLength; ++i) {
        shell::Shell& shell =
            fabric_->shell(ring_nodes_[static_cast<std::size_t>(i)]);
        roles_.push_back(std::make_unique<StageRole>(
            this, simulator_, &shell, stage_at_[static_cast<std::size_t>(i)], i));
        shell.SetRole(roles_.back().get());
    }
}

void RankingService::Deploy(std::function<void(bool)> on_done) {
    mgmt::ServiceSpec spec;
    spec.service_name = config_.service_name;
    for (int i = 0; i < kRingLength; ++i) {
        mgmt::RoleAssignment assignment;
        assignment.role_name =
            config_.service_name + "/rank." +
            ToString(stage_at_[static_cast<std::size_t>(i)]);
        assignment.image = StageBitstream(stage_at_[static_cast<std::size_t>(i)]);
        assignment.node = ring_nodes_[static_cast<std::size_t>(i)];
        spec.roles.push_back(std::move(assignment));
    }
    // Warm the default model so reload times are defined at first use.
    DefaultModel();
    mapping_manager_->Deploy(spec, std::move(on_done));
}

const rank::Model& RankingService::DefaultModel() {
    return models_.GetOrGenerate(0, config_.model_seed);
}

rank::QueueManager& RankingService::queue_manager() { return queue_manager_; }

DocContext* RankingService::ContextAt(std::uint32_t index,
                                      std::uint64_t trace_id) {
    if (index >= contexts_.size()) return nullptr;
    DocContext& ctx = contexts_[index];
    return ctx.trace_id == trace_id ? &ctx : nullptr;
}

DocContext* RankingService::FindContext(const shell::Packet& packet) {
    return ContextAt(packet.context, packet.trace_id);
}

void RankingService::ReleaseContext(std::uint32_t index) {
    DocContext& ctx = contexts_[index];
    ctx.trace_id = 0;
    ctx.on_complete = nullptr;
    contexts_.Release(index);
}

void RankingService::SetObservability(obs::ShardObs* obs) {
    obs_ = obs;
    obs_doc_latency_us_ =
        obs == nullptr ? nullptr
                       : obs->registry.histogram("pod.doc_latency_us");
}

rank::RankingFunction& RankingService::FunctionFor(std::uint32_t model_id) {
    auto it = functions_.find(model_id);
    if (it == functions_.end()) {
        const rank::Model& model =
            models_.GetOrGenerate(model_id, config_.model_seed);
        it = functions_
                 .emplace(model_id,
                          std::make_unique<rank::RankingFunction>(&model))
                 .first;
    }
    return *it->second;
}

int RankingService::RingIndexOf(PipelineStage stage) const {
    for (int i = 0; i < kRingLength; ++i) {
        if (stage_at_[static_cast<std::size_t>(i)] == stage) return i;
    }
    return -1;
}

Time RankingService::StageServiceTime(PipelineStage stage,
                                      const rank::CompressedRequest& request,
                                      std::uint32_t model_id) {
    const rank::Model& model =
        models_.GetOrGenerate(model_id, config_.model_seed);
    return StageServiceTimeFor(stage, request, model);
}

void RankingService::BindModel(DocContext& ctx) {
    if (ctx.model != nullptr) return;
    const std::uint32_t model_id = ctx.request.query.model_id;
    ctx.model = &models_.GetOrGenerate(model_id, config_.model_seed);
    if (config_.compute_scores) ctx.function = &FunctionFor(model_id);
}

Bytes RankingService::StageOutputBytes(PipelineStage stage,
                                       std::uint32_t model_id) {
    return StageOutputBytes(
        stage, models_.GetOrGenerate(model_id, config_.model_seed));
}

Bytes RankingService::StageOutputBytes(PipelineStage stage,
                                       const rank::Model& model) {
    switch (stage) {
      case PipelineStage::kFeatureExtraction:
        // Non-zero dynamic features + software features, ~6 B apiece
        // (id + value); a fraction of the 4,484-feature space fires.
        return 6 * 1'024;
      case PipelineStage::kFfe0:
      case PipelineStage::kFfe1:
        // Features plus computed FFE outputs/metafeatures.
        return 8 * 1'024;
      case PipelineStage::kCompression:
      case PipelineStage::kScoring0:
      case PipelineStage::kScoring1:
        // The compressed operand set the scoring engines consume.
        return model.compression().CompressedPayloadBytes();
      default:
        return 64;
    }
}

host::SendStatus RankingService::Inject(int ring_index, int thread,
                                        const rank::CompressedRequest& request,
                                        CompletionFn on_complete) {
    host::HostServer* server = host(ring_index);
    const int slot = server->driver().SlotFor(thread);
    return InjectOnSlot(ring_index, slot, request, std::move(on_complete));
}

host::SendStatus RankingService::InjectOnSlot(
    int ring_index, int slot, const rank::CompressedRequest& request,
    CompletionFn on_complete) {
    host::HostServer* server = host(ring_index);
    if (!server->responsive()) return host::SendStatus::kTimeout;

    const std::uint64_t trace_id = next_trace_id_++;
    // A traced document takes its span id even when the slot turns out
    // busy, so span numbering does not depend on slot contention.
    const bool traced = obs_ != nullptr && obs_->tracing() &&
                        request.query.obs_trace != 0;
    const std::uint64_t obs_span = traced ? obs_->tracer.NextSpanId() : 0;
    if (server->driver().SlotBusy(slot)) return host::SendStatus::kSlotBusy;

    // A reused slot keeps its request's and feature store's storage.
    const std::uint32_t index = contexts_.Acquire();
    DocContext& ctx = contexts_[index];
    ctx.trace_id = trace_id;
    ctx.request = request;
    ctx.injector = fabric_->GlobalId(RingNode(ring_index));
    ctx.slot = slot;
    ctx.injected_at = simulator_->Now();
    ctx.model = nullptr;
    ctx.function = nullptr;
    ctx.final_score = 0.0f;
    ctx.on_complete = std::move(on_complete);
    if (config_.compute_scores) {
        if (ctx.store != nullptr) {
            ctx.store->Clear();
        } else {
            ctx.store = std::make_unique<rank::FeatureStore>();
        }
    }
    ctx.obs_trace = traced ? request.query.obs_trace : 0;
    ctx.obs_parent = traced ? request.query.obs_parent : 0;
    ctx.obs_span = obs_span;

    auto packet = shell::MakePacket(
        shell::PacketType::kScoringRequest, ctx.injector,
        fabric_->GlobalId(RingNode(RingIndexOf(PipelineStage::kFeatureExtraction))),
        request.wire_bytes > 0 ? request.wire_bytes : request.EncodedSize(),
        trace_id);
    packet->context = index;
    ++counters_.injected;

    // The injecting thread first runs the document-conversion software
    // (§4) before filling its slot.
    simulator_->ScheduleAfter(
        kInjectionOverhead,
        [this, server, slot, index, trace_id,
         packet = std::move(packet)]() mutable {
            const auto status = server->driver().Send(
                slot, std::move(packet),
                [this, index, trace_id](host::SendStatus send_status,
                                        shell::PacketPtr) {
                    if (send_status == host::SendStatus::kOk) {
                        OnResponse(index, trace_id);
                    } else {
                        CompleteTimeout(index, trace_id);
                    }
                });
            if (status != host::SendStatus::kOk) {
                CompleteTimeout(index, trace_id);
            }
        });
    return host::SendStatus::kOk;
}

void RankingService::OnResponse(std::uint32_t index, std::uint64_t trace_id) {
    DocContext* found = ContextAt(index, trace_id);
    if (found == nullptr) return;
    DocContext& ctx = *found;
    ScoreResult result;
    result.ok = true;
    result.trace_id = trace_id;
    result.score = ctx.final_score;
    result.latency = simulator_->Now() - ctx.injected_at;
    ++counters_.completed;
    if (obs_doc_latency_us_ != nullptr) {
        obs_doc_latency_us_->ObserveLatency(result.latency);
    }
    if (ctx.obs_span != 0) {
        // The score's DMA landing, then the whole document journey —
        // keyed by the FDR-visible trace id so recorder records join
        // this span in the stitched timeline.
        obs_->tracer.Instant("dma_response", ctx.obs_trace, ctx.obs_span,
                             trace_id, simulator_->Now(), ctx.slot, 1);
        obs_->tracer.Span("doc", ctx.obs_trace, ctx.obs_span, ctx.obs_parent,
                          trace_id, ctx.injected_at, simulator_->Now(), 1,
                          ctx.slot);
    }
    if (config_.archive_traces) {
        ArchivedTrace trace;
        trace.request = ctx.request;
        trace.score = ctx.final_score;
        trace.scored = ctx.store != nullptr;
        TraceArchive& archive = config_.shared_archive != nullptr
                                    ? *config_.shared_archive
                                    : trace_archive_;
        archive.Record(trace_id, std::move(trace));
    }
    CompletionFn cb = std::move(ctx.on_complete);
    ReleaseContext(index);
    if (cb) cb(result);
}

void RankingService::CompleteTimeout(std::uint32_t index,
                                     std::uint64_t trace_id) {
    DocContext* found = ContextAt(index, trace_id);
    if (found == nullptr) return;
    DocContext& ctx = *found;
    ScoreResult result;
    result.ok = false;
    result.trace_id = trace_id;
    result.latency = simulator_->Now() - ctx.injected_at;
    ++counters_.timeouts;
    if (ctx.obs_span != 0) {
        obs_->tracer.Span("doc", ctx.obs_trace, ctx.obs_span, ctx.obs_parent,
                          trace_id, ctx.injected_at, simulator_->Now(), 0,
                          ctx.slot);
    }
    CompletionFn cb = std::move(ctx.on_complete);
    ReleaseContext(index);
    if (cb) cb(result);
}

void RankingService::RotateRingAround(int failed_ring_index,
                                      std::function<void(bool)> on_done) {
    // §4.2: "The eighth FPGA is a spare which allows the Service Manager
    // to rotate the ring upon a machine failure and keep the ranking
    // pipeline alive." The spare absorbs the failed position's stage;
    // the failed node becomes the (dead) spare.
    const int spare_index = RingIndexOf(PipelineStage::kSpare);
    if (spare_index < 0 || failed_ring_index == spare_index) {
        on_done(false);
        return;
    }
    std::swap(stage_at_[static_cast<std::size_t>(failed_ring_index)],
              stage_at_[static_cast<std::size_t>(spare_index)]);
    LOG_INFO("service_manager")
        << "ring rotated: stage "
        << ToString(stage_at_[static_cast<std::size_t>(spare_index)])
        << " moved from ring position " << failed_ring_index << " to "
        << spare_index;
    BuildRoles();
    Deploy(std::move(on_done));
}

void RankingService::BumpModelReloads() { ++counters_.model_reloads; }

rank::FeatureStore& RankingService::CompressionScratch() {
    if (compressed_scratch_ == nullptr) {
        compressed_scratch_ = std::make_unique<rank::FeatureStore>();
    } else {
        compressed_scratch_->Clear();
    }
    return *compressed_scratch_;
}

}  // namespace catapult::service
