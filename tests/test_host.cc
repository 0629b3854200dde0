// Unit tests for the host server and slot DMA driver (§3.1, §3.4).

#include <gtest/gtest.h>

#include "fpga/fpga_device.h"
#include "host/host_server.h"
#include "host/slot_dma_channel.h"
#include "shell/shell.h"
#include "sim/simulator.h"

namespace catapult::host {
namespace {

/** Echo role: reflects every request as a response on the same slot. */
class EchoRole : public shell::Role {
  public:
    explicit EchoRole(shell::Shell* shell) : shell_(shell) {}
    void OnPacket(shell::PacketPtr packet) override {
        auto response = shell::MakePacket(
            shell::PacketType::kScoringResponse, shell_->node(),
            packet->source, 64, packet->trace_id);
        response->slot = packet->slot;
        shell_->SendFromRole(std::move(response));
    }
    std::string RoleName() const override { return "echo"; }

  private:
    shell::Shell* shell_;
};

struct HostRig {
    sim::Simulator sim;
    fpga::FpgaDevice device{&sim, "dev", Rng(1)};
    shell::Shell shell{&sim, 0, "shell", &device, Rng(2)};
    HostServer host{&sim, "server0", &shell};
    EchoRole echo{&shell};

    HostRig() {
        shell.SetRole(&echo);
        shell.ReleaseRxHalt();
        device.flash().InstallImage(fpga::FlashSlot::kApplication,
                                    fpga::GoldenBitstream());
    }
};

TEST(SlotDmaChannel, SendAndReceive) {
    HostRig rig;
    SendStatus status = SendStatus::kTimeout;
    shell::PacketPtr response;
    auto packet = shell::MakePacket(shell::PacketType::kScoringRequest, 0, 0,
                                    6'500, /*trace_id=*/5);
    rig.host.driver().Send(0, std::move(packet), [&](SendStatus s, shell::PacketPtr p) {
        status = s;
        response = std::move(p);
    });
    rig.sim.Run();
    EXPECT_EQ(status, SendStatus::kOk);
    ASSERT_NE(response, nullptr);
    EXPECT_EQ(response->trace_id, 5u);
    EXPECT_EQ(rig.host.driver().counters().responses, 1u);
}

TEST(SlotDmaChannel, SlotBusyRejected) {
    HostRig rig;
    auto first = shell::MakePacket(shell::PacketType::kScoringRequest, 0, 0, 64);
    auto second = shell::MakePacket(shell::PacketType::kScoringRequest, 0, 0, 64);
    EXPECT_EQ(rig.host.driver().Send(0, std::move(first), [](SendStatus, shell::PacketPtr) {}),
              SendStatus::kOk);
    EXPECT_EQ(rig.host.driver().Send(0, std::move(second), [](SendStatus, shell::PacketPtr) {}),
              SendStatus::kSlotBusy);
    rig.sim.Run();
}

TEST(SlotDmaChannel, OversizedRejected) {
    HostRig rig;
    auto packet = shell::MakePacket(shell::PacketType::kScoringRequest, 0, 0,
                                    shell::kDmaSlotBytes + 1);
    EXPECT_EQ(rig.host.driver().Send(0, std::move(packet),
                                     [](SendStatus, shell::PacketPtr) {}),
              SendStatus::kBadRequest);
}

TEST(SlotDmaChannel, TimeoutWhenNoResponse) {
    HostRig rig;
    rig.shell.SetRole(nullptr);  // nobody answers
    SendStatus status = SendStatus::kOk;
    auto packet = shell::MakePacket(shell::PacketType::kScoringRequest, 0, 0, 64);
    rig.host.driver().Send(3, std::move(packet), [&](SendStatus s, shell::PacketPtr) {
        status = s;
    });
    rig.sim.Run();
    // §3.2: "the host will time out and divert the request to a
    // higher-level failure handling protocol."
    EXPECT_EQ(status, SendStatus::kTimeout);
    EXPECT_EQ(rig.host.driver().counters().timeouts, 1u);
    // The slot is reusable afterwards.
    EXPECT_FALSE(rig.host.driver().SlotBusy(3));
}

TEST(SlotDmaChannel, ThreadSlotPartitioning) {
    HostRig rig;
    EXPECT_EQ(rig.host.driver().AssignThreads(16), 4);
    EXPECT_EQ(rig.host.driver().SlotFor(0), 0);
    EXPECT_EQ(rig.host.driver().SlotFor(1), 4);
    EXPECT_EQ(rig.host.driver().SlotFor(15, 3), 63);
}

TEST(SlotDmaChannel, ManyOutstandingRequests) {
    HostRig rig;
    int responses = 0;
    for (int slot = 0; slot < shell::kDmaSlotCount; ++slot) {
        auto packet = shell::MakePacket(shell::PacketType::kScoringRequest,
                                        0, 0, 1'000,
                                        static_cast<std::uint64_t>(slot));
        EXPECT_EQ(rig.host.driver().Send(
                      slot, std::move(packet),
                      [&](SendStatus s, shell::PacketPtr) {
                          if (s == SendStatus::kOk) ++responses;
                      }),
                  SendStatus::kOk);
    }
    rig.sim.Run();
    EXPECT_EQ(responses, shell::kDmaSlotCount);
}

TEST(HostServer, ReconfigureMasksNmi) {
    HostRig rig;
    bool done = false;
    rig.host.ReconfigureFromFlash(fpga::FlashSlot::kApplication,
                                  [&](bool ok) { done = ok; });
    rig.sim.Run();
    EXPECT_TRUE(done);
    // Proper masking: no crash, server stays up (§3.4).
    EXPECT_EQ(rig.host.state(), ServerState::kRunning);
    EXPECT_EQ(rig.host.counters().nmi_crashes, 0u);
}

TEST(HostServer, UnmaskedSurpriseRemovalCrashesHost) {
    HostRig rig;
    // Bypass the driver: reconfigure the shell directly, as a buggy
    // or malicious agent would, without masking the NMI.
    rig.shell.Reconfigure(fpga::FlashSlot::kApplication, true, [](bool) {});
    EXPECT_EQ(rig.host.state(), ServerState::kCrashed);
    EXPECT_EQ(rig.host.counters().nmi_crashes, 1u);
    rig.sim.Run();
    // The crash self-heals through a reboot.
    EXPECT_EQ(rig.host.state(), ServerState::kRunning);
}

TEST(HostServer, SoftRebootRestoresService) {
    HostRig rig;
    bool rebooted = false;
    rig.host.SoftReboot([&] { rebooted = true; });
    EXPECT_FALSE(rig.host.responsive());
    rig.sim.Run();
    EXPECT_TRUE(rebooted);
    EXPECT_TRUE(rig.host.responsive());
    // The FPGA came back configured (power cycle loads the app image).
    EXPECT_EQ(rig.device.state(), fpga::DeviceState::kActive);
}

TEST(HostServer, HardRebootTakesLonger) {
    HostRig rig;
    Time soft_done = 0, hard_done = 0;
    rig.host.SoftReboot([&] { soft_done = rig.sim.Now(); });
    rig.sim.Run();
    const Time t0 = rig.sim.Now();
    rig.host.HardReboot([&] { hard_done = rig.sim.Now(); });
    rig.sim.Run();
    EXPECT_GT(hard_done - t0, soft_done);
}

TEST(HostServer, FlagForServiceIsTerminal) {
    HostRig rig;
    rig.host.FlagForService();
    EXPECT_FALSE(rig.host.responsive());
    EXPECT_EQ(rig.host.state(), ServerState::kFlaggedForService);
}

// Slot misuse aborts in every build, naming the call and the value.

TEST(SlotDmaChannelDeathTest, AssignThreadsOutsideOneToSixtyFourAborts) {
    HostRig rig;
    EXPECT_DEATH(rig.host.driver().AssignThreads(0),
                 "SlotDmaChannel::AssignThreads: thread_count 0 outside "
                 "\\[1, 64\\]");
    EXPECT_DEATH(rig.host.driver().AssignThreads(65),
                 "SlotDmaChannel::AssignThreads: thread_count 65 outside "
                 "\\[1, 64\\]");
}

TEST(SlotDmaChannelDeathTest, SlotForOutOfRangeAborts) {
    HostRig rig;
    rig.host.driver().AssignThreads(16);
    // A wrapped index would alias thread 16 onto thread 0's slots.
    EXPECT_DEATH(rig.host.driver().SlotFor(16),
                 "SlotDmaChannel::SlotFor: thread 16 outside \\[0, 16\\)");
    EXPECT_DEATH(rig.host.driver().SlotFor(-1),
                 "SlotDmaChannel::SlotFor: thread -1 outside \\[0, 16\\)");
    EXPECT_DEATH(rig.host.driver().SlotFor(0, 4),
                 "SlotDmaChannel::SlotFor: k 4 outside \\[0, 4\\)");
}

TEST(SlotDmaChannelDeathTest, SendOnSlotOutOfRangeAborts) {
    HostRig rig;
    EXPECT_DEATH(
        rig.host.driver().Send(
            64, shell::MakePacket(shell::PacketType::kScoringRequest, 0, 0, 64),
            [](SendStatus, shell::PacketPtr) {}),
        "SlotDmaChannel::Send: slot 64 outside \\[0, 64\\)");
}

TEST(SlotDmaChannelDeathTest, SendOnIdleSlotWithFullBitAborts) {
    HostRig rig;
    // The full bit set behind the driver's back: the driver believes
    // slot 2 idle, and a release build used to drop the request.
    ASSERT_TRUE(rig.shell.dma().SetInputFull(
        2, shell::MakePacket(shell::PacketType::kScoringRequest, 0, 0, 64)));
    EXPECT_DEATH(
        rig.host.driver().Send(
            2, shell::MakePacket(shell::PacketType::kScoringRequest, 0, 0, 64),
            [](SendStatus, shell::PacketPtr) {}),
        "SlotDmaChannel::Send: slot 2 is idle but its input full bit is set");
}

}  // namespace
}  // namespace catapult::host
