#include "hdk/query_lattice.h"

#include <algorithm>

#include "common/flat_map.h"

namespace hdk::hdk {

uint64_t NumQueryKeys(uint32_t query_size, uint32_t s_max) {
  uint64_t total = 0;
  const uint32_t limit = std::min(query_size, s_max);
  for (uint32_t i = 1; i <= limit; ++i) {
    // Exact small binomials.
    uint64_t c = 1;
    for (uint32_t j = 1; j <= i; ++j) {
      c = c * (query_size - j + 1) / j;
    }
    total += c;
  }
  return total;
}

std::vector<TermKey> EnumerateQuerySubsets(std::span<const TermId> query,
                                           uint32_t s_max) {
  // Deduplicate and sort the query terms.
  std::vector<TermId> terms(query.begin(), query.end());
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  const uint32_t q = static_cast<uint32_t>(terms.size());
  const uint32_t limit =
      std::min({s_max, q, TermKey::kMaxTerms});

  std::vector<TermKey> out;
  // Enumerate by size for the subsumption-friendly order.
  std::vector<uint32_t> ix;
  for (uint32_t s = 1; s <= limit; ++s) {
    ix.resize(s);
    for (uint32_t i = 0; i < s; ++i) ix[i] = i;
    while (true) {
      std::vector<TermId> subset(s);
      for (uint32_t i = 0; i < s; ++i) subset[i] = terms[ix[i]];
      out.emplace_back(std::span<const TermId>(subset));
      int i = static_cast<int>(s) - 1;
      while (i >= 0 && ix[i] == static_cast<uint32_t>(i) + q - s) --i;
      if (i < 0) break;
      ++ix[i];
      for (uint32_t j = static_cast<uint32_t>(i) + 1; j < s; ++j) {
        ix[j] = ix[j - 1] + 1;
      }
    }
  }
  return out;
}

RetrievalPlan PlanRetrieval(std::span<const TermId> query, uint32_t s_max,
                            const ProbeFn& probe) {
  RetrievalPlan plan;
  std::vector<TermKey> matched_hdks;
  std::vector<TermKey> dead;  // absent subsets: supersets are absent too

  for (const TermKey& subset : EnumerateQuerySubsets(query, s_max)) {
    bool skip = false;
    for (const TermKey& h : matched_hdks) {
      if (subset.size() > h.size() && subset.ContainsAll(h)) {
        skip = true;
        break;
      }
    }
    if (!skip) {
      for (const TermKey& d : dead) {
        if (subset.ContainsAll(d)) {
          skip = true;
          break;
        }
      }
    }
    if (skip) {
      ++plan.pruned;
      continue;
    }
    ++plan.probes;
    std::optional<ProbeOutcome> outcome = probe(subset);
    if (!outcome.has_value()) {
      dead.push_back(subset);
      continue;
    }
    plan.fetched.push_back(subset);
    if (outcome->is_hdk) {
      matched_hdks.push_back(subset);
    }
  }
  return plan;
}

std::vector<index::ScoredDoc> RankFetchedKeys(
    std::span<const FetchedKey> fetched, uint64_t collection_size,
    double avg_doc_length, size_t k, index::Bm25Params params) {
  index::Bm25Scorer scorer(collection_size, avg_doc_length, params);
  // Flat accumulation table sized from the candidate posting lists: the
  // summed list lengths upper-bound the union, so scoring never rehashes.
  // (TopK's score-then-doc-id ordering is total, so the accumulation
  // order cannot perturb the ranked results.)
  size_t total_postings = 0;
  for (const FetchedKey& f : fetched) {
    if (f.postings != nullptr) total_postings += f.postings->size();
  }
  FlatMap<DocId, double, IdHasher> scores;
  scores.reserve(total_postings);
  for (const FetchedKey& f : fetched) {
    if (f.postings == nullptr || f.postings->empty()) continue;
    // One log per key; a zero df scores 0, as in Score().
    const double idf = f.global_df == 0 ? 0.0 : scorer.Idf(f.global_df);
    for (const index::Posting& p : f.postings->postings()) {
      scores[p.doc] += scorer.ScoreWithIdf(idf, p.tf, p.doc_length);
    }
  }
  index::TopK topk(k);
  for (const auto& [doc, score] : scores) {
    topk.Offer(index::ScoredDoc{doc, score});
  }
  return topk.Take();
}

}  // namespace hdk::hdk
