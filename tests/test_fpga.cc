// Unit tests for the FPGA device substrate: area, power, thermal,
// flash, SEU scrubbing, and the configuration state machine.

#include <gtest/gtest.h>

#include "fpga/area_model.h"
#include "fpga/bitstream.h"
#include "fpga/config_flash.h"
#include "fpga/fpga_device.h"
#include "fpga/power_model.h"
#include "fpga/seu_scrubber.h"
#include "fpga/thermal_model.h"
#include "sim/simulator.h"

namespace catapult::fpga {
namespace {

TEST(AreaModel, StratixVD5Budget) {
    const DeviceBudget budget;
    EXPECT_EQ(budget.capacity().alms, 172'600);
    EXPECT_EQ(budget.capacity().m20k_blocks, 2'014);
    EXPECT_EQ(budget.capacity().dsp_blocks, 1'590);
    // §4.3: 2,014 M20K blocks of 20 Kb each.
    EXPECT_EQ(budget.TotalM20kBits(), 2'014ll * 20'480);
}

TEST(AreaModel, UtilizationRoundTrip) {
    const DeviceBudget budget;
    const Utilization util{74.0, 49.0, 12.0};  // Table 1 FE row
    const ResourceCounts counts = budget.FromUtilization(util);
    const Utilization back = budget.ToUtilization(counts);
    EXPECT_NEAR(back.logic_pct, util.logic_pct, 0.1);
    EXPECT_NEAR(back.ram_pct, util.ram_pct, 0.1);
    EXPECT_NEAR(back.dsp_pct, util.dsp_pct, 0.1);
}

TEST(AreaModel, FitsWithin) {
    const DeviceBudget budget;
    EXPECT_TRUE(budget.Fits(budget.FromUtilization({99.0, 99.0, 99.0})));
    ResourceCounts too_big = budget.capacity();
    too_big.alms += 1;
    EXPECT_FALSE(budget.Fits(too_big));
}

TEST(AreaModel, ShellIsTwentyThreePercent) {
    EXPECT_DOUBLE_EQ(ShellUtilization().logic_pct, 23.0);  // §3.2
}

TEST(PowerModel, PowerVirusMatchesPaper) {
    // §5: "we ran a 'power virus' bitstream ... and measured a modest
    // power consumption of 22.7 W."
    const PowerModel model;
    EXPECT_NEAR(model.PowerVirusWatts(), 22.7, 0.05);
}

TEST(PowerModel, NominalOperationUnderTwentyWatts) {
    // §2.1: "keeping the power draw to under 20 W during normal
    // operation". FE is the largest ranking role.
    const PowerModel model;
    const Bitstream fe = MakeBitstream(1, "rank.fe", {74, 49, 12},
                                       Frequency::MHz(150.0));
    EXPECT_LT(model.Power(fe, 0.75), 20.0);
}

TEST(PowerModel, NoDesignExceedsPcieCap) {
    // §2.1: the 25 W PCIe budget powers the card with no jumper cables.
    const PowerModel model;
    EXPECT_FALSE(model.ExceedsPcieCap(PowerVirusBitstream()));
    EXPECT_LT(model.PowerVirusWatts(), 25.0);
}

TEST(PowerModel, IdleDrawsStaticPower) {
    const PowerModel model;
    EXPECT_DOUBLE_EQ(model.Power(GoldenBitstream(), 0.0),
                     PowerModel::kStaticWatts);
}

TEST(ThermalModel, ConvergesToSteadyState) {
    ThermalModel thermal;
    for (int i = 0; i < 100; ++i) thermal.Advance(20.0, Seconds(10));
    EXPECT_NEAR(thermal.die_celsius(), thermal.SteadyStateCelsius(20.0), 0.1);
    EXPECT_FALSE(thermal.over_temperature());
}

TEST(ThermalModel, IndustrialRatingHeadroom) {
    // §2.1: FPGA in the CPU exhaust (68 C) with a part rated to 100 C;
    // nominal 20 W operation must stay under the rating.
    ThermalModel thermal;
    EXPECT_LT(thermal.SteadyStateCelsius(20.0), 100.0);
    // A hypothetical 30 W draw would exceed the envelope.
    EXPECT_GT(thermal.SteadyStateCelsius(30.0), 100.0);
}

TEST(ConfigFlash, WriteTimingAndReadback) {
    sim::Simulator sim;
    ConfigFlash flash(&sim);
    const Bitstream image = GoldenBitstream();
    bool done = false;
    flash.WriteImage(FlashSlot::kApplication, image,
                     [&](bool ok) { done = ok; });
    EXPECT_TRUE(flash.write_in_progress());
    sim.Run();
    EXPECT_TRUE(done);
    ASSERT_TRUE(flash.ReadImage(FlashSlot::kApplication).has_value());
    EXPECT_EQ(flash.ReadImage(FlashSlot::kApplication)->image_id,
              image.image_id);
    // A 16 MiB image at ~2 MB/s takes seconds.
    EXPECT_GT(sim.Now(), Seconds(5));
}

TEST(ConfigFlash, RejectsOversizedImage) {
    sim::Simulator sim;
    ConfigFlash flash(&sim);
    Bitstream image = GoldenBitstream();
    image.payload_size = 64ll * 1024 * 1024;  // > 32 MB flash
    bool result = true;
    flash.WriteImage(FlashSlot::kApplication, image,
                     [&](bool ok) { result = ok; });
    sim.Run();
    EXPECT_FALSE(result);
}

TEST(FpgaDevice, ConfigurationLifecycle) {
    sim::Simulator sim;
    FpgaDevice device(&sim, "fpga0", Rng(1));
    device.flash().InstallImage(FlashSlot::kApplication, GoldenBitstream());
    EXPECT_EQ(device.state(), DeviceState::kUnconfigured);

    bool ok = false;
    device.ConfigureFromFlash(FlashSlot::kApplication,
                              [&](bool success) { ok = success; });
    EXPECT_EQ(device.state(), DeviceState::kConfiguring);
    sim.Run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(device.state(), DeviceState::kActive);
    EXPECT_EQ(device.configurations_completed(), 1u);
    // §4.3: full configuration takes milliseconds to seconds.
    EXPECT_GE(sim.Now(), Milliseconds(1));
    EXPECT_LE(sim.Now(), Seconds(5));
}

TEST(FpgaDevice, ConfigureFromEmptySlotFails) {
    sim::Simulator sim;
    FpgaDevice device(&sim, "fpga0", Rng(1));
    bool ok = true;
    device.ConfigureFromFlash(FlashSlot::kApplication,
                              [&](bool success) { ok = success; });
    sim.Run();
    EXPECT_FALSE(ok);
}

TEST(FpgaDevice, RejectsImageThatDoesNotFit) {
    sim::Simulator sim;
    FpgaDevice device(&sim, "fpga0", Rng(1));
    Bitstream huge = MakeBitstream(9, "too.big", {120.0, 50.0, 0.0},
                                   Frequency::MHz(100.0));
    device.flash().InstallImage(FlashSlot::kApplication, huge);
    bool ok = true;
    device.ConfigureFromFlash(FlashSlot::kApplication,
                              [&](bool success) { ok = success; });
    sim.Run();
    EXPECT_FALSE(ok);
    EXPECT_NE(device.state(), DeviceState::kActive);
}

TEST(FpgaDevice, StateListenersFire) {
    sim::Simulator sim;
    FpgaDevice device(&sim, "fpga0", Rng(1));
    device.flash().InstallImage(FlashSlot::kApplication, GoldenBitstream());
    std::vector<DeviceState> transitions;
    const Subscription subscription = device.state_changes().Subscribe(
        [&](DeviceState next) { transitions.push_back(next); });
    device.ConfigureFromFlash(FlashSlot::kApplication, [](bool) {});
    sim.Run();
    ASSERT_EQ(transitions.size(), 2u);
    EXPECT_EQ(transitions[0], DeviceState::kConfiguring);
    EXPECT_EQ(transitions[1], DeviceState::kActive);
}

TEST(FpgaDevice, ReconfigurationFromActiveState) {
    sim::Simulator sim;
    FpgaDevice device(&sim, "fpga0", Rng(1));
    device.flash().InstallImage(FlashSlot::kApplication, GoldenBitstream());
    device.ConfigureFromFlash(FlashSlot::kApplication, [](bool) {});
    sim.Run();

    std::vector<DeviceState> transitions;
    const Subscription subscription = device.state_changes().Subscribe(
        [&](DeviceState next) { transitions.push_back(next); });
    device.ConfigureFromFlash(FlashSlot::kApplication, [](bool) {});
    EXPECT_EQ(device.state(), DeviceState::kReconfiguring);
    sim.Run();
    EXPECT_EQ(device.state(), DeviceState::kActive);
    EXPECT_EQ(device.configurations_completed(), 2u);
}

TEST(FpgaDevice, ConfigFailureRetries) {
    sim::Simulator sim;
    FpgaDevice::Config config;
    config.config_failure_probability = 0.5;
    FpgaDevice device(&sim, "fpga0", Rng(7), config);
    device.flash().InstallImage(FlashSlot::kApplication, GoldenBitstream());
    bool ok = false;
    device.ConfigureFromFlash(FlashSlot::kApplication,
                              [&](bool success) { ok = success; });
    sim.Run();
    EXPECT_TRUE(ok);  // retries until it succeeds
    EXPECT_EQ(device.state(), DeviceState::kActive);
}

TEST(FpgaDevice, ForceFailAndPowerCycleRecovers) {
    sim::Simulator sim;
    FpgaDevice device(&sim, "fpga0", Rng(1));
    device.flash().InstallImage(FlashSlot::kApplication, GoldenBitstream());
    device.ConfigureFromFlash(FlashSlot::kApplication, [](bool) {});
    sim.Run();

    device.ForceFail("test");
    EXPECT_EQ(device.state(), DeviceState::kFailed);

    bool ok = false;
    device.PowerCycle([&](bool success) { ok = success; });
    sim.Run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(device.state(), DeviceState::kActive);
}

TEST(SeuScrubber, InjectsAndCorrectsUpsets) {
    sim::Simulator sim;
    SeuScrubber::Config config;
    config.upsets_per_second = 1'000.0;  // storm rate for the test
    config.critical_bit_fraction = 0.0;
    SeuScrubber scrubber(&sim, Rng(3), config);
    scrubber.Start();
    sim.RunUntil(Seconds(1));
    const auto& counters = scrubber.counters();
    EXPECT_GT(counters.upsets_injected, 500u);
    // Every upset before the final scan period has been corrected (the
    // last <= 2 scrub periods' worth may still be pending).
    const auto in_flight_bound = static_cast<std::uint64_t>(
        2.0 * config.upsets_per_second * ToSeconds(SeuScrubber::kScrubPeriod));
    EXPECT_GE(counters.upsets_corrected + in_flight_bound + 5,
              counters.upsets_injected);
    scrubber.Stop();
}

TEST(SeuScrubber, CriticalUpsetsCorruptRole) {
    sim::Simulator sim;
    SeuScrubber::Config config;
    config.upsets_per_second = 1'000.0;
    config.critical_bit_fraction = 1.0;
    SeuScrubber scrubber(&sim, Rng(3), config);
    int corruptions = 0;
    scrubber.set_on_role_corruption([&] { ++corruptions; });
    scrubber.Start();
    sim.RunUntil(Milliseconds(100));
    scrubber.Stop();
    EXPECT_GT(corruptions, 0);
    EXPECT_EQ(scrubber.counters().role_corruptions,
              static_cast<std::uint64_t>(corruptions));
}

TEST(SeuScrubber, ScrubPassesAccumulate) {
    sim::Simulator sim;
    SeuScrubber scrubber(&sim, Rng(3));
    scrubber.Start();
    sim.ScheduleAt(Seconds(1), [] {});
    sim.Run();
    // 50 ms scan period -> ~20 passes per second.
    EXPECT_NEAR(static_cast<double>(scrubber.counters().scrub_passes), 20.0,
                1.0);
}

TEST(Bitstream, FactoryDefaults) {
    const Bitstream b = MakeBitstream(42, "test.role", {50, 50, 10},
                                      Frequency::MHz(200.0));
    EXPECT_TRUE(b.valid());
    EXPECT_GT(b.payload_size, 0);
    EXPECT_EQ(b.shell_version, 1u);
}

}  // namespace
}  // namespace catapult::fpga
