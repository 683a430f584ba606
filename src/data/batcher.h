// Length-bucketed mini-batching of ranking examples.
//
// Padding waste in the recurrent layers is proportional to the length
// spread inside a batch, so examples are sorted by sequence length, cut
// into contiguous batches, and the *batch order* (not the contents) is
// reshuffled every epoch. This keeps epochs stochastic while bounding
// padding overhead.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "nn/sequence_batch.h"

namespace pathrank::data {

/// One flat training example: a vertex-id sequence and its label, plus the
/// normalised physical targets used by multi-task training.
struct RankingExample {
  std::vector<int32_t> vertices;
  float label = 0.0f;
  /// Path length and travel time scaled into (0, 1] by the dataset-wide
  /// maxima (targets for the auxiliary heads).
  float norm_length = 0.0f;
  float norm_time = 0.0f;
  int query_id = 0;
};

/// Flattens query-grouped candidates into training examples, computing the
/// normalised auxiliary targets from the dataset's length/time maxima.
std::vector<RankingExample> FlattenDataset(const RankingDataset& dataset);

/// Materialised batch ready for the model.
struct ModelBatch {
  nn::SequenceBatch sequences;
  std::vector<float> labels;
  std::vector<float> norm_lengths;
  std::vector<float> norm_times;
};

/// Deterministic length-bucketed batcher.
class Batcher {
 public:
  Batcher(std::vector<RankingExample> examples, size_t batch_size);

  size_t num_batches() const { return batch_starts_.size(); }
  size_t num_examples() const { return examples_.size(); }

  /// Re-randomises the batch visit order (call once per epoch).
  void Reshuffle(pathrank::Rng& rng);

  /// Number of examples in batch `i` under the current visit order.
  size_t BatchRows(size_t i) const;

  /// Returns batch `i` under the current visit order.
  ModelBatch GetBatch(size_t i) const {
    return GetBatchRows(i, 0, BatchRows(i));
  }

  /// Returns rows [lo, hi) of batch `i` under the current visit order (the
  /// batch's examples stay length-sorted, so a row range is a contiguous
  /// slice of the sorted pool).
  ModelBatch GetBatchRows(size_t i, size_t lo, size_t hi) const;

 private:
  std::vector<RankingExample> examples_;  // sorted by length
  size_t batch_size_;
  std::vector<size_t> batch_starts_;  // start offset of each batch
  std::vector<size_t> visit_order_;   // permutation of batch indices
};

}  // namespace pathrank::data
