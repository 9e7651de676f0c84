#include "index/searcher.h"

#include <algorithm>
#include <unordered_map>

namespace hdk::index {

Bm25Searcher::Bm25Searcher(const InvertedIndex& idx, Bm25Params params)
    : idx_(idx), params_(params) {}

std::vector<ScoredDoc> Bm25Searcher::Search(std::span<const TermId> query,
                                            size_t k) const {
  // Deduplicate query terms.
  std::vector<TermId> terms(query.begin(), query.end());
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  Bm25Scorer scorer(idx_.num_documents(), idx_.average_document_length(),
                    params_);

  std::unordered_map<DocId, double> scores;
  for (TermId t : terms) {
    const PostingList& pl = idx_.Postings(t);
    if (pl.empty()) continue;
    const double idf = scorer.Idf(pl.size());
    for (const Posting& p : pl.postings()) {
      scores[p.doc] += scorer.ScoreWithIdf(idf, p.tf, p.doc_length);
    }
  }

  TopK topk(k);
  for (const auto& [doc, score] : scores) {
    topk.Offer(ScoredDoc{doc, score});
  }
  return topk.Take();
}

uint64_t Bm25Searcher::RetrievalPostings(
    std::span<const TermId> query) const {
  std::vector<TermId> terms(query.begin(), query.end());
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  uint64_t total = 0;
  for (TermId t : terms) {
    total += idx_.Postings(t).size();
  }
  return total;
}

}  // namespace hdk::index
