// Stage roles: the application logic loaded into each ring FPGA.
//
// Each role is a single-document-at-a-time server (inputs are
// double-buffered in hardware, §4.4, which the one-deep overlap of
// queue + service models). The head role additionally runs the Queue
// Manager with its per-model DRAM queues and issues Model Reload
// commands (§4.3). The final scoring role emits the response packet
// back to the injector.

#pragma once

#include <cstdint>

#include "common/ring_queue.h"
#include "common/slot_table.h"
#include "rank/model.h"
#include "rank/software_ranker.h"
#include "shell/shell.h"
#include "sim/simulator.h"

namespace catapult::service {

class RankingService;

/**
 * Stage service time for one document: FE scales with tuple count; the
 * FFE stages with the loaded model's compiled programs; compression and
 * scoring with the model's operand/tree footprints.
 */
Time StageServiceTimeFor(rank::PipelineStage stage,
                         const rank::CompressedRequest& request,
                         const rank::Model& model);

class StageRole : public shell::Role {
  public:
    StageRole(RankingService* service, sim::Simulator* simulator,
              shell::Shell* shell, rank::PipelineStage stage, int ring_index);
    ~StageRole() override;

    StageRole(const StageRole&) = delete;
    StageRole& operator=(const StageRole&) = delete;

    // shell::Role interface.
    void OnPacket(shell::PacketPtr packet) override;
    std::string RoleName() const override;
    bool Healthy() const override { return !hung_; }

    rank::PipelineStage stage() const { return stage_; }
    int ring_index() const { return ring_index_; }

    /** Failure injection: stage logic hangs on an untested input (§3.6). */
    void Hang() { hung_ = true; }
    void Unhang() { hung_ = false; }

    struct Counters {
        std::uint64_t processed = 0;
        std::uint64_t forwarded = 0;
        std::uint64_t reloads = 0;
    };
    const Counters& counters() const { return counters_; }

    std::size_t queue_depth() const { return queue_.size(); }

  private:
    void Pump();
    void StartService(shell::PacketPtr packet);
    void FinishService(shell::PacketPtr packet);
    void ForwardToNext(shell::PacketPtr packet);
    void EmitResponse(shell::PacketPtr request_packet);
    /** Head-of-ring only: run the Queue Manager dispatch loop. */
    void PumpHead();
    /** True while this role (not a rebuilt successor) still exists. */
    static bool Alive(std::uint32_t cell, std::uint32_t generation);

    RankingService* service_;
    sim::Simulator* simulator_;
    shell::Shell* shell_;
    rank::PipelineStage stage_;
    int ring_index_;
    RingQueue<shell::PacketPtr> queue_;
    /**
     * Head stage: documents parked in the Queue Manager's DRAM queues.
     * A QM entry is the index of its packet's slot here.
     */
    SlotTable<shell::PacketPtr> head_slots_;
    bool busy_ = false;
    bool hung_ = false;
    std::uint32_t loaded_model_ = 0;
    bool model_loaded_ = false;
    /**
     * Liveness guard for simulator callbacks: a ring redeploy
     * (RankingService::BuildRoles) destroys and rebuilds every role
     * while documents may still be mid-service, so scheduled
     * completions capture this role's liveness cell and generation and
     * no-op once the role is gone instead of dereferencing a dangling
     * `this`.
     */
    std::uint32_t live_cell_ = 0;
    std::uint32_t live_generation_ = 0;
    Counters counters_;
};

}  // namespace catapult::service
