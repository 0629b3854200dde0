// Node-level stage loopback experiments (Figure 8).
//
// "We measure each stage of the pipeline on a single FPGA and inject
// scoring requests collected from real-world traces ... in two loopback
// modes: (1) requests and responses sent over PCIe and (2) requests and
// responses routed through a loopback SAS cable (to measure the impact
// of SL3 link latency and throughput on performance)."
//
// The rig instantiates a two-node micro-fabric: the stage under test on
// one FPGA and, in SL3 mode, a second shell acting as the far end of
// the loopback cable (topologically identical to a cable looped back
// into the same board). The rig is a LoadTarget whose clients are the
// host's 1..N threads, driven by the per-thread closed loop; the
// result's ThroughputPerSecond() is documents/second.

#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "fabric/catapult_fabric.h"
#include "host/host_server.h"
#include "rank/model.h"
#include "service/load_generator.h"
#include "service/stage_role.h"
#include "sim/simulator.h"

namespace catapult::service {

class StageLoopback {
  public:
    struct Config {
        rank::PipelineStage stage = rank::PipelineStage::kFeatureExtraction;
        bool via_sl3 = false;   ///< PCIe-only vs SL3 loopback (§5).
        int threads = 1;
        int documents_per_thread = 200;
        rank::Model::Config model;
    };

    explicit StageLoopback(Config config);
    ~StageLoopback();

    /** Every thread sends `documents_per_thread` back to back. */
    LoadResult Run();

  private:
    class LoopRole;

    Config config_;
    sim::Simulator simulator_;
    std::unique_ptr<fabric::CatapultFabric> fabric_;
    std::unique_ptr<host::HostServer> host_;
    /** Shares the process-wide model cache, so every rig of a sweep
        scores with one generated model. */
    rank::ModelStore models_;
    const rank::Model* model_ = nullptr;
    std::unique_ptr<LoopRole> role_;
    /** The completion of each thread's outstanding document. */
    std::vector<CompletionFn> thread_callbacks_;
};

}  // namespace catapult::service
