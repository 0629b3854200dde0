// §5 power experiment: the "power virus" bitstream and the board power
// envelope.
//
// "To measure the maximum power overhead of introducing FPGAs to our
// servers, we ran a 'power virus' bitstream on one of our FPGAs (i.e.,
// maxing out the area and activity factor) and measured a modest power
// consumption of 22.7 W." Constraints from §2.1: 25 W PCIe-only power
// budget, under 20 W in normal operation (the 10% server power limit).

#include <cstdio>

#include "bench_util.h"
#include "fpga/power_model.h"
#include "fpga/thermal_model.h"
#include "service/ranking_service.h"
#include "sim/simulator.h"

using namespace catapult;

int main() {
    bench::Banner("Power: virus bitstream, ranking roles, thermal envelope",
                  "Putnam et al., ISCA 2014, §2.1 + §5 power measurement");

    const fpga::PowerModel power;
    fpga::ThermalModel thermal;

    std::printf("\nPower virus (100%% area, activity 1.0): %.1f W  [paper: 22.7 W]\n",
                power.PowerVirusWatts());
    std::printf("PCIe slot power cap                  : %.1f W  [paper: 25 W]\n",
                fpga::PowerModel::kPcieCapWatts);

    std::printf("\nRanking roles at production activity (0.75):\n");
    bench::Row({"stage", "power_W", "under_20W", "die_C"});
    for (int s = 0; s < rank::kPipelineStageCount; ++s) {
        const auto stage = static_cast<rank::PipelineStage>(s);
        const fpga::Bitstream image = service::StageBitstream(stage);
        const double watts = power.Power(image, 0.75);
        bench::Row({ToString(stage), bench::Fmt(watts, 1),
                    watts < 20.0 ? "yes" : "NO",
                    bench::Fmt(thermal.SteadyStateCelsius(watts), 1)});
    }

    std::printf("\nActivity sweep for the power virus image:\n");
    bench::Row({"activity", "power_W", "die_C_steady"});
    for (const double activity : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        const double watts =
            power.Power(fpga::PowerVirusBitstream(), activity);
        bench::Row({bench::Fmt(activity), bench::Fmt(watts, 1),
                    bench::Fmt(thermal.SteadyStateCelsius(watts), 1)});
    }
    std::printf(
        "\nEnvelope check: virus %.1f W < 25 W cap; die at virus power "
        "%.1f C vs 100 C industrial rating (inlet 68 C, §2.1).\n",
        power.PowerVirusWatts(),
        thermal.SteadyStateCelsius(power.PowerVirusWatts()));

    // Thermal transient, on simulated time: idle board, then the FE
    // role at production activity, then the virus image — the first-
    // order RC (tau = 20 s) sampled every 250 ms. Pins that even the
    // worst-case image settles below the 100 C shutdown line, and how
    // long each excursion takes to settle.
    sim::Simulator sim;
    fpga::ThermalModel transient;
    struct Phase {
        const char* name;
        double watts;
        Time duration;
    };
    const fpga::Bitstream fe =
        service::StageBitstream(rank::PipelineStage::kFeatureExtraction);
    const Phase phases[] = {
        {"idle", power.Power(fe, 0.0), Seconds(60)},
        {"FE @ 0.75", power.Power(fe, 0.75), Seconds(120)},
        {"power virus", power.PowerVirusWatts(), Seconds(120)},
    };
    std::printf("\nThermal transient (250 ms steps, tau %.0f s):\n",
                ToSeconds(fpga::ThermalModel::kTimeConstant));
    bench::Row({"phase", "watts", "end_die_C", "steady_C", "shutdown"});
    const Time step = Milliseconds(250);
    Time cursor = 0;
    bool ever_shutdown = false;
    for (const Phase& phase : phases) {
        const Time end = cursor + phase.duration;
        for (Time t = cursor + step; t <= end; t += step) {
            sim.ScheduleAt(t, [&transient, &ever_shutdown, step,
                               watts = phase.watts] {
                transient.Advance(watts, step);
                if (transient.over_temperature()) ever_shutdown = true;
            });
        }
        sim.ScheduleAt(end, [&, phase] {
            bench::Row({phase.name, bench::Fmt(phase.watts, 1),
                        bench::Fmt(transient.die_celsius(), 1),
                        bench::Fmt(thermal.SteadyStateCelsius(phase.watts), 1),
                        transient.over_temperature() ? "OVER" : "no"});
        });
        cursor = end;
    }
    sim.Run();
    std::printf("Shutdown line crossed during the ramp: %s  "
                "[paper: 22.7 W virus stays in envelope]\n",
                ever_shutdown ? "YES" : "no");
    return 0;
}
