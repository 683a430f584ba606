#include "data/batcher.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace pathrank::data {

std::vector<RankingExample> FlattenDataset(const RankingDataset& dataset) {
  double max_length = 0.0;
  double max_time = 0.0;
  for (const auto& q : dataset.queries) {
    for (const auto& c : q.candidates) {
      max_length = std::max(max_length, c.path.length_m);
      max_time = std::max(max_time, c.path.time_s);
    }
  }
  const double inv_length = max_length > 0.0 ? 1.0 / max_length : 0.0;
  const double inv_time = max_time > 0.0 ? 1.0 / max_time : 0.0;

  std::vector<RankingExample> examples;
  examples.reserve(dataset.num_examples());
  for (const auto& q : dataset.queries) {
    for (const auto& c : q.candidates) {
      RankingExample ex;
      ex.vertices.reserve(c.path.vertices.size());
      for (graph::VertexId v : c.path.vertices) {
        ex.vertices.push_back(static_cast<int32_t>(v));
      }
      ex.label = static_cast<float>(c.label);
      ex.norm_length = static_cast<float>(c.path.length_m * inv_length);
      ex.norm_time = static_cast<float>(c.path.time_s * inv_time);
      ex.query_id = q.query_id;
      examples.push_back(std::move(ex));
    }
  }
  return examples;
}

Batcher::Batcher(std::vector<RankingExample> examples, size_t batch_size)
    : examples_(std::move(examples)), batch_size_(batch_size) {
  PR_CHECK(batch_size_ >= 1);
  PR_CHECK(!examples_.empty()) << "batcher over empty dataset";
  std::stable_sort(examples_.begin(), examples_.end(),
                   [](const RankingExample& a, const RankingExample& b) {
                     return a.vertices.size() < b.vertices.size();
                   });
  for (size_t start = 0; start < examples_.size(); start += batch_size_) {
    batch_starts_.push_back(start);
  }
  visit_order_.resize(batch_starts_.size());
  std::iota(visit_order_.begin(), visit_order_.end(), size_t{0});
}

void Batcher::Reshuffle(pathrank::Rng& rng) { rng.Shuffle(visit_order_); }

size_t Batcher::BatchRows(size_t i) const {
  PR_CHECK(i < visit_order_.size());
  const size_t start = batch_starts_[visit_order_[i]];
  return std::min(batch_size_, examples_.size() - start);
}

ModelBatch Batcher::GetBatchRows(size_t i, size_t lo, size_t hi) const {
  PR_CHECK(lo < hi && hi <= BatchRows(i));
  const size_t start = batch_starts_[visit_order_[i]] + lo;
  const size_t end = batch_starts_[visit_order_[i]] + hi;

  std::vector<std::vector<int32_t>> seqs;
  ModelBatch batch;
  seqs.reserve(end - start);
  batch.labels.reserve(end - start);
  batch.norm_lengths.reserve(end - start);
  batch.norm_times.reserve(end - start);
  for (size_t e = start; e < end; ++e) {
    seqs.push_back(examples_[e].vertices);
    batch.labels.push_back(examples_[e].label);
    batch.norm_lengths.push_back(examples_[e].norm_length);
    batch.norm_times.push_back(examples_[e].norm_time);
  }
  batch.sequences = nn::SequenceBatch::FromSequences(seqs);
  return batch;
}

}  // namespace pathrank::data
