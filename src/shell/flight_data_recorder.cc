#include "shell/flight_data_recorder.h"

#include <sstream>

namespace catapult::shell {

void FlightDataRecorder::Record(const FdrRecord& record) {
    ring_[total_ % kWindow] = record;
    ++total_;
}

std::vector<FdrRecord> FlightDataRecorder::StreamOut() const {
    std::vector<FdrRecord> out;
    const std::size_t n = window_occupancy();
    out.reserve(n);
    const std::uint64_t start = total_ >= kWindow ? total_ - kWindow : 0;
    for (std::uint64_t i = start; i < total_; ++i) {
        out.push_back(ring_[i % kWindow]);
    }
    return out;
}

std::string FlightDataRecorder::DumpJson() const {
    std::ostringstream out;
    out << "{\"power_on\":{\"sl3_lanes_locked\":"
        << (power_on_.sl3_lanes_locked ? "true" : "false")
        << ",\"plls_locked\":" << (power_on_.plls_locked ? "true" : "false")
        << ",\"resets_sequenced\":"
        << (power_on_.resets_sequenced ? "true" : "false")
        << ",\"dram_calibrated\":"
        << (power_on_.dram_calibrated ? "true" : "false")
        << ",\"recorded_at\":" << power_on_.recorded_at << "}"
        << ",\"total_recorded\":" << total_ << ",\"records\":[";
    bool first = true;
    for (const FdrRecord& r : StreamOut()) {
        if (!first) out << ",";
        first = false;
        out << "{\"ts\":" << r.timestamp << ",\"trace_id\":" << r.trace_id
            << ",\"type\":\"" << ToString(r.type) << "\",\"size\":" << r.size
            << ",\"ingress\":\"" << ToString(r.ingress) << "\",\"egress\":\""
            << ToString(r.egress) << "\",\"queue_flits\":" << r.queue_flits
            << "}";
    }
    out << "]}";
    return out.str();
}

void FlightDataRecorder::Reset() {
    total_ = 0;
    power_on_ = PowerOnRecord{};
}

}  // namespace catapult::shell
