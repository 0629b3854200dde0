#include "service/stage_loopback.h"

#include <deque>

namespace catapult::service {

/**
 * Role hosting the stage under test: serves one document at a time at
 * the stage's service rate and reflects a response to the injector.
 */
class StageLoopback::LoopRole : public shell::Role {
  public:
    LoopRole(StageLoopback* rig, sim::Simulator* simulator,
             shell::Shell* shell)
        : rig_(rig), simulator_(simulator), shell_(shell) {}

    void OnPacket(shell::PacketPtr packet) override {
        if (packet->type != shell::PacketType::kScoringRequest) return;
        queue_.push_back(std::move(packet));
        Pump();
    }

    std::string RoleName() const override {
        return std::string("loopback.") + ToString(rig_->config_.stage);
    }

  private:
    void Pump() {
        if (busy_ || queue_.empty()) return;
        busy_ = true;
        shell::PacketPtr packet = std::move(queue_.front());
        queue_.pop_front();
        // Service time derives from the injected document's tuple count
        // (stashed in the packet payload by the rig).
        rank::CompressedRequest request;
        request.tuple_count = static_cast<std::uint32_t>(packet->payload);
        const Time service = StageServiceTimeFor(
            rig_->config_.stage, request, *rig_->model_, *rig_->function_,
            rig_->config_.fe_timing);
        simulator_->ScheduleAfter(service, [this, packet] {
            auto response = shell::MakePacket(
                shell::PacketType::kScoringResponse, shell_->node(),
                packet->source, 64, packet->trace_id);
            response->slot = packet->slot;
            shell_->SendFromRole(response);
            busy_ = false;
            Pump();
        });
    }

    StageLoopback* rig_;
    sim::Simulator* simulator_;
    shell::Shell* shell_;
    std::deque<shell::PacketPtr> queue_;
    bool busy_ = false;
};

StageLoopback::StageLoopback(Config config)
    : config_(config),
      models_(rank::ModelStore::Config{.model = config.model}) {
    Rng rng(config_.model_seed ^ 0x10093ACCull);

    // Two-node micro-fabric (1x2 "torus"): node 0 hosts the injecting
    // server; the stage role sits at node 0 in PCIe mode, node 1 behind
    // the loopback cable in SL3 mode.
    fabric::CatapultFabric::Config fabric_config;
    fabric_config.topology = fabric::TorusTopology(1, 2);
    fabric_config.name_prefix = "loopback";
    fabric_ = std::make_unique<fabric::CatapultFabric>(&simulator_, rng.Fork(),
                                                       fabric_config);
    fabric_->InstallTorusRoutes();

    host_ = std::make_unique<host::HostServer>(&simulator_, "loopback.host",
                                               &fabric_->shell(0));

    model_ = &models_.GetOrGenerate(0, config_.model_seed);
    function_ = std::make_unique<rank::RankingFunction>(model_);

    const int role_node = config_.via_sl3 ? 1 : 0;
    role_ = std::make_unique<LoopRole>(this, &simulator_,
                                       &fabric_->shell(role_node));
    fabric_->shell(role_node).SetRole(role_.get());
    fabric_->shell(0).ReleaseRxHalt();
    fabric_->shell(1).ReleaseRxHalt();

    host_->driver().AssignThreads(
        std::max(1, std::min(config_.threads, shell::kDmaSlotCount)));
}

StageLoopback::~StageLoopback() = default;

LoadResult StageLoopback::Run() {
    const int role_node = config_.via_sl3 ? 1 : 0;
    const LoadTarget rig{
        &simulator_, config_.threads,
        [this, role_node](int thread, const rank::CompressedRequest& request,
                          CompletionFn on_complete) {
            auto packet = shell::MakePacket(
                shell::PacketType::kScoringRequest, fabric_->GlobalId(0),
                fabric_->GlobalId(role_node), request.wire_bytes,
                request.doc_id + 1);
            packet->payload = request.tuple_count;
            const Time sent = simulator_.Now();
            return host_->driver().Send(
                host_->driver().SlotFor(thread), std::move(packet),
                [this, sent, on_complete = std::move(on_complete)](
                    host::SendStatus status, shell::PacketPtr) {
                    on_complete({.ok = status == host::SendStatus::kOk,
                                 .latency = simulator_.Now() - sent});
                });
        }};
    return RunPerThreadLoop(rig, config_.documents_per_thread);
}

}  // namespace catapult::service
