// Synthetic corpus generator calibrated to the paper's Figure 4.
//
// "Figure 4 shows a CDF of all document sizes in a 210 Kdoc sample
// collected from real-world traces. As shown, nearly all of the
// compressed documents are under 64 KB (only 300 require truncation).
// On average, documents are 6.5 KB, with the 99th percentile at 53 KB."
//
// A single lognormal cannot match {mean 6.5 KB, p99 53 KB, ~0.14%
// truncation} simultaneously; the generator uses a two-component
// lognormal mixture (a small-document body plus a heavy big-document
// component) whose defaults reproduce all three statistics to within a
// few percent.

#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "rank/document.h"

namespace catapult::rank {

class DocumentGenerator {
  public:
    struct Config {
        /** Distinct models in the serving mix (§4.3). */
        std::uint32_t model_count = 4;
    };

    DocumentGenerator(std::uint64_t seed, Config config);
    explicit DocumentGenerator(std::uint64_t seed)
        : DocumentGenerator(seed, Config()) {}

    /** Generate the next request (documents get sequential ids). */
    CompressedRequest Next();

    /** Generate a request with an exact target encoded size. */
    CompressedRequest WithTargetSize(Bytes target);

    /** Generate a corpus of `count` requests. */
    std::vector<CompressedRequest> Corpus(int count);

    std::uint64_t generated() const { return next_doc_id_; }
    std::uint64_t truncated_count() const { return truncated_; }

    const Config& config() const { return config_; }

  private:
    /** Draw a target compressed size (before the 64 KB cap). */
    double DrawTargetBytes();
    CompressedRequest Build(Bytes target);

    Config config_;
    Rng rng_;
    std::uint64_t next_doc_id_ = 0;
    std::uint64_t truncated_ = 0;
};

}  // namespace catapult::rank
