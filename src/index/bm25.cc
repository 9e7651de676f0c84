#include "index/bm25.h"

#include <algorithm>
#include <cmath>

namespace hdk::index {

Bm25Scorer::Bm25Scorer(uint64_t num_docs, double avg_doc_len,
                       Bm25Params params)
    : num_docs_(num_docs),
      avg_doc_len_(std::max(avg_doc_len, 1.0)),
      params_(params) {}

double Bm25Scorer::Idf(Freq df) const {
  const double n = static_cast<double>(num_docs_);
  const double d = static_cast<double>(df);
  return std::log((n - d + 0.5) / (d + 0.5) + 1.0);
}

double Bm25Scorer::ScoreWithIdf(double idf, uint32_t tf,
                                uint32_t doc_length) const {
  if (tf == 0) return 0.0;
  const double tfd = static_cast<double>(tf);
  const double norm =
      params_.k1 * (1.0 - params_.b +
                    params_.b * static_cast<double>(doc_length) /
                        avg_doc_len_);
  return idf * (tfd * (params_.k1 + 1.0)) / (tfd + norm);
}

}  // namespace hdk::index
