#include "service/stage_role.h"

#include <cassert>

#include "common/log.h"
#include "service/ranking_service.h"

namespace catapult::service {

using rank::PipelineStage;

Time StageServiceTimeFor(PipelineStage stage,
                         const rank::CompressedRequest& request,
                         const rank::Model& model) {
    switch (stage) {
      case PipelineStage::kFeatureExtraction:
        return rank::FeatureExtractor::ServiceTime(request.tuple_count);
      case PipelineStage::kFfe0:
        return model.ffe0_service_time();
      case PipelineStage::kFfe1:
        return model.ffe1_service_time();
      case PipelineStage::kCompression:
        return model.compression().ServiceTime();
      case PipelineStage::kScoring0:
      case PipelineStage::kScoring1:
      case PipelineStage::kScoring2: {
        const int shard = static_cast<int>(stage) -
                          static_cast<int>(PipelineStage::kScoring0);
        return model.ensemble().shard(shard).ServiceTime();
      }
      case PipelineStage::kSpare:
        // Pass-through forwarding only.
        return Microseconds(1);
    }
    return 0;
}

namespace {

/**
 * One generation counter per live stage role. A role takes a free cell
 * at construction and bumps its generation at destruction, so a
 * callback that captured (cell, generation) can tell whether its role
 * still exists. Cells recycle; the table holds the peak number of
 * roles alive at once.
 */
SlotTable<std::uint32_t>& Liveness() {
    static thread_local SlotTable<std::uint32_t> liveness;
    return liveness;
}

}  // namespace

StageRole::StageRole(RankingService* service, sim::Simulator* simulator,
                     shell::Shell* shell, PipelineStage stage, int ring_index)
    : service_(service),
      simulator_(simulator),
      shell_(shell),
      stage_(stage),
      ring_index_(ring_index) {
    assert(service_ != nullptr && shell_ != nullptr);
    live_cell_ = Liveness().Acquire();
    live_generation_ = Liveness()[live_cell_];
}

StageRole::~StageRole() {
    ++Liveness()[live_cell_];
    Liveness().Release(live_cell_);
}

bool StageRole::Alive(std::uint32_t cell, std::uint32_t generation) {
    return Liveness()[cell] == generation;
}

std::string StageRole::RoleName() const {
    return std::string("rank.") + ToString(stage_);
}

void StageRole::OnPacket(shell::PacketPtr packet) {
    if (hung_) return;  // stage logic hang: the document is swallowed

    if (packet->type == shell::PacketType::kModelReload) {
        // Forward the command immediately so downstream stages reload
        // concurrently while it propagates (§4.3); our own reload stall
        // enters the service queue in arrival order.
        if (stage_ != PipelineStage::kSpare) {
            auto relay = shell::MakePacket(shell::PacketType::kModelReload,
                                           packet->source, shell_->node(), 64,
                                           packet->trace_id);
            relay->payload = packet->payload;
            ForwardToNext(std::move(relay));
        }
        queue_.push_back(std::move(packet));
        Pump();
        return;
    }

    if (packet->type != shell::PacketType::kScoringRequest) return;

    if (stage_ == PipelineStage::kFeatureExtraction) {
        // Head of the pipeline: the request lands in the Queue Manager's
        // per-model DRAM queue (§4.3). The DRAM write is charged against
        // channel 0; queue state updates immediately.
        DocContext* ctx = service_->FindContext(*packet);
        if (ctx == nullptr) return;
        shell_->dram(0).Transfer(packet->size, [](bool) {});
        const std::uint32_t entry = head_slots_.Acquire();
        head_slots_[entry] = std::move(packet);
        service_->queue_manager().Enqueue(ctx->request.query.model_id, entry,
                                          simulator_->Now());
        PumpHead();
        return;
    }

    queue_.push_back(std::move(packet));
    Pump();
}

void StageRole::PumpHead() {
    if (busy_) return;
    auto& qm = service_->queue_manager();
    const auto decision = qm.Next(simulator_->Now());
    using Kind = rank::QueueManager::DispatchDecision::Kind;
    switch (decision.kind) {
      case Kind::kIdle:
        return;
      case Kind::kModelReload: {
        // Switch models: reload our own stage and send the Model Reload
        // command down the ring (§4.3).
        busy_ = true;
        ++counters_.reloads;
        service_->BumpModelReloads();
        const rank::Model& model =
            service_->models().GetOrGenerate(decision.model_id,
                                             service_->config().model_seed);
        loaded_model_ = decision.model_id;
        model_loaded_ = true;
        auto command = shell::MakePacket(shell::PacketType::kModelReload,
                                         shell_->node(), shell_->node(), 64);
        command->payload = decision.model_id;
        ForwardToNext(std::move(command));
        const Time reload = service_->models().StageReloadTime(model, stage_);
        simulator_->ScheduleAfter(
            reload, [this, cell = live_cell_, generation = live_generation_] {
                if (!Alive(cell, generation)) return;  // rebuilt mid-reload
                busy_ = false;
                PumpHead();
            });
        return;
      }
      case Kind::kDispatch: {
        const auto entry = static_cast<std::uint32_t>(decision.entry);
        if (decision.entry >= head_slots_.size() ||
            head_slots_[entry] == nullptr) {
            // The Queue Manager outlives this role (it belongs to the
            // service), but BuildRoles resets it whenever it rebuilds
            // the roles, so an entry always names one of this role's
            // slots; an empty slot means an entry dispatched twice.
            // Drop and keep draining — the document's host timeout
            // handles the rest.
            PumpHead();
            return;
        }
        shell::PacketPtr packet = std::move(head_slots_[entry]);
        head_slots_.Release(entry);
        // DRAM read back out of the model queue.
        shell_->dram(0).Transfer(packet->size, [](bool) {});
        StartService(std::move(packet));
        return;
      }
    }
}

void StageRole::Pump() {
    if (busy_ || queue_.empty()) return;
    shell::PacketPtr packet = queue_.pop_front();
    if (packet->type == shell::PacketType::kModelReload) {
        // Reload this stage's instruction/model memories from DRAM.
        ++counters_.reloads;
        const auto model_id = static_cast<std::uint32_t>(packet->payload);
        const rank::Model& model = service_->models().GetOrGenerate(
            model_id, service_->config().model_seed);
        loaded_model_ = model_id;
        model_loaded_ = true;
        busy_ = true;
        const Time reload = service_->models().StageReloadTime(model, stage_);
        simulator_->ScheduleAfter(
            reload, [this, cell = live_cell_, generation = live_generation_] {
                if (!Alive(cell, generation)) return;  // rebuilt mid-reload
                busy_ = false;
                Pump();
            });
        return;
    }
    StartService(std::move(packet));
}

void StageRole::StartService(shell::PacketPtr packet) {
    busy_ = true;
    DocContext* ctx = service_->FindContext(*packet);
    if (ctx == nullptr) {
        // Context evaporated (host timed out and gave up). Drop.
        busy_ = false;
        if (stage_ == PipelineStage::kFeatureExtraction) PumpHead(); else Pump();
        return;
    }
    service_->BindModel(*ctx);
    const Time service =
        StageServiceTimeFor(stage_, ctx->request, *ctx->model);
    obs::ShardObs* obs = service_->observability();
    if (obs != nullptr && obs->tracing() && ctx->obs_span != 0) {
        // The stage interval is deterministic once service starts, so
        // the span is recorded up front (a ring redeploy mid-service
        // abandons the document to the host timeout; the optimistic
        // span stays, mirroring the hardware's committed occupancy).
        obs->tracer.Span("stage", ctx->obs_trace, obs->tracer.NextSpanId(),
                         ctx->obs_span, packet->trace_id, simulator_->Now(),
                         simulator_->Now() + service,
                         static_cast<std::int64_t>(stage_), ring_index_);
    }
    simulator_->ScheduleAfter(
        service, [this, cell = live_cell_, generation = live_generation_,
                  packet = std::move(packet)]() mutable {
            // Role rebuilt mid-service (ring redeploy after a failure):
            // the document's fate is the host timeout's to decide, not
            // a dangling `this`.
            if (!Alive(cell, generation)) return;
            FinishService(std::move(packet));
        });
}

void StageRole::FinishService(shell::PacketPtr packet) {
    ++counters_.processed;
    DocContext* ctx = service_->FindContext(*packet);
    if (ctx != nullptr && ctx->store != nullptr) {
        // Functional path (bit-exact scores).
        rank::RankingFunction& fn = *ctx->function;
        switch (stage_) {
          case PipelineStage::kFeatureExtraction:
            fn.ExtractFeatures(ctx->request, *ctx->store);
            break;
          case PipelineStage::kFfe0:
            fn.RunFfe0(*ctx->store);
            break;
          case PipelineStage::kFfe1:
            fn.RunFfe1(*ctx->store);
            break;
          case PipelineStage::kCompression: {
            rank::FeatureStore& compressed = service_->CompressionScratch();
            fn.Compress(*ctx->store, compressed);
            std::swap(*ctx->store, compressed);
            break;
          }
          case PipelineStage::kScoring0:
            ctx->final_score +=
                fn.model().ensemble().shard(0).PartialScore(*ctx->store);
            break;
          case PipelineStage::kScoring1:
            ctx->final_score +=
                fn.model().ensemble().shard(1).PartialScore(*ctx->store);
            break;
          case PipelineStage::kScoring2:
            ctx->final_score +=
                fn.model().ensemble().shard(2).PartialScore(*ctx->store);
            break;
          case PipelineStage::kSpare:
            break;
        }
    }

    if (stage_ == PipelineStage::kScoring2) {
        EmitResponse(std::move(packet));
    } else if (stage_ == PipelineStage::kSpare) {
        // Spare holds no pipeline function; documents do not reach it.
    } else {
        ForwardToNext(std::move(packet));
    }
    busy_ = false;
    if (stage_ == PipelineStage::kFeatureExtraction) PumpHead(); else Pump();
}

void StageRole::ForwardToNext(shell::PacketPtr packet) {
    // Forwarding follows the LOGICAL pipeline order (FE -> FFE0 -> FFE1
    // -> Comp -> Scr0 -> Scr1 -> Scr2), not ring adjacency: after a ring
    // rotation (§4.2) the stage sequence is no longer contiguous on the
    // torus and documents simply route through intermediate nodes.
    const int next_stage = static_cast<int>(stage_) + 1;
    if (next_stage >= static_cast<int>(PipelineStage::kSpare)) return;
    const int next_index =
        service_->RingIndexOf(static_cast<PipelineStage>(next_stage));
    if (next_index < 0) return;
    packet->destination = service_->fabric()->GlobalId(
        service_->RingNode(next_index));
    if (packet->type == shell::PacketType::kScoringRequest) {
        // Downstream of each stage the wire carries that stage's output
        // data (features/operands), not the compressed document.
        DocContext* ctx = service_->FindContext(*packet);
        if (ctx != nullptr) {
            service_->BindModel(*ctx);
            packet->size = RankingService::StageOutputBytes(stage_, *ctx->model);
        } else {
            packet->size = service_->StageOutputBytes(stage_, 0);
        }
    }
    ++counters_.forwarded;
    shell_->SendFromRole(std::move(packet));
}

void StageRole::EmitResponse(shell::PacketPtr request_packet) {
    DocContext* ctx = service_->FindContext(*request_packet);
    if (ctx == nullptr) return;
    // §4.1: "A PCIe DMA transfer moves the score, query ID, and
    // performance counters back to the host" — a small fixed payload.
    auto response = shell::MakePacket(shell::PacketType::kScoringResponse,
                                      shell_->node(), ctx->injector, 64,
                                      request_packet->trace_id);
    response->slot = ctx->slot;
    response->injected_at = ctx->injected_at;
    response->context = request_packet->context;
    shell_->SendFromRole(std::move(response));
}

}  // namespace catapult::service
