// Distributed query tracing on simulated time.
//
// A span is one timed hop of a query's life — the session gather, the
// dispatcher's accepted query, the pod-side document, each StageRole
// service interval — identified by (trace, span, parent) ids. The ids
// travel in two plain uint64 fields on rank::Query, which every layer
// already copies along the path (scatter stamps its per-doc requests,
// the dispatcher's QueryContext holds the request, cross-shard mailbox
// closures copy it), so no signature changes anywhere.
//
// Recording is allocation-free and single-writer: each simulator shard
// owns a TraceRecorder — a preallocated ring of fixed-size TraceRecord
// entries, appended only by events on that shard. Span and trace ids
// are (shard << 48) | counter, so id allocation is deterministic per
// shard and collision-free across shards; the ring contents are
// bit-identical run to run.
//
// StitchChromeTrace merges every shard's ring into one Chrome
// trace-event JSON document ("traceEvents", ph "X" complete events /
// ph "i" instants, ts in microseconds of simulated time) — loadable in
// Perfetto / chrome://tracing. FDR records drained into the timeline
// carry only the packet's document trace id; the stitcher joins them to
// the query tree by looking up the document span that owns that id.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace catapult::obs {

/** Fixed-size trace entry. `name` must point at a string literal (or
 *  other storage outliving the recorder) — the ring never copies it. */
struct TraceRecord {
    const char* name = nullptr;
    std::uint64_t trace = 0;   ///< Timeline id (0 = unassigned, stitcher joins via `doc`).
    std::uint64_t span = 0;    ///< This span's id; 0 for instants.
    std::uint64_t parent = 0;  ///< Enclosing span id; 0 = root.
    /** Document trace id (rank-layer packet id) when the record belongs
     *  to one document's journey; joins FDR records to query spans. */
    std::uint64_t doc = 0;
    Time start = 0;
    Time end = 0;  ///< == start for instant events.
    std::int64_t a1 = 0;
    std::int64_t a2 = 0;
};

class TraceRecorder {
  public:
    TraceRecorder(int shard, std::size_t capacity, bool enabled);

    bool enabled() const { return enabled_; }
    int shard() const { return shard_; }

    /** Deterministic ids: (shard << 48) | per-shard counter. */
    std::uint64_t NextSpanId() { return base_ | ++next_span_; }
    std::uint64_t NextTraceId() { return base_ | ++next_trace_; }

    /** Append a completed span. No-op while disabled. */
    void Span(const char* name, std::uint64_t trace, std::uint64_t span,
              std::uint64_t parent, std::uint64_t doc, Time start, Time end,
              std::int64_t a1 = 0, std::int64_t a2 = 0);

    /** Append an instant (point) event. No-op while disabled. */
    void Instant(const char* name, std::uint64_t trace, std::uint64_t parent,
                 std::uint64_t doc, Time at, std::int64_t a1 = 0,
                 std::int64_t a2 = 0);

    /** Ring contents, oldest first. */
    std::vector<TraceRecord> Records() const;

    std::uint64_t total_recorded() const { return total_; }
    /** Records evicted because the ring wrapped. */
    std::uint64_t dropped() const {
        return total_ > ring_.size() ? total_ - ring_.size() : 0;
    }

  private:
    int shard_;
    bool enabled_;
    std::uint64_t base_;
    std::uint64_t next_span_ = 0;
    std::uint64_t next_trace_ = 0;
    std::uint64_t total_ = 0;
    std::vector<TraceRecord> ring_;
};

/**
 * Merge shard rings into Chrome trace-event JSON on simulated
 * timestamps. Records are sorted canonically (start, end, trace, span,
 * shard, name) before emission and FDR/instant records with trace == 0
 * are re-parented onto the document span owning their `doc` id, so the
 * output is byte-identical for bit-identical inputs.
 */
std::string StitchChromeTrace(const std::vector<const TraceRecorder*>& shards);

}  // namespace catapult::obs
