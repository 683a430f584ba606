// Training-data pipeline: candidate generation (TkDI/D-TkDI), labels,
// dataset splitting and the length-bucketed batcher.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/batcher.h"
#include "data/candidate_generation.h"
#include "data/dataset.h"
#include "graph/network_builder.h"
#include "routing/path_similarity.h"
#include "traj/trajectory_generator.h"

namespace pathrank::data {
namespace {

using graph::BuildTestNetwork;
using graph::RoadNetwork;

std::vector<traj::TripPath> MakeTrips(const RoadNetwork& net, int n,
                                      uint64_t seed) {
  traj::TrajectoryGeneratorConfig cfg;
  cfg.num_drivers = 5;
  cfg.num_trips = n;
  cfg.min_trip_distance_m = 1200.0;
  cfg.seed = seed;
  return traj::TrajectoryGenerator(net, cfg).Generate();
}

class CandidateStrategies
    : public ::testing::TestWithParam<CandidateStrategy> {};

TEST_P(CandidateStrategies, ProducesLabelledCandidates) {
  const RoadNetwork net = BuildTestNetwork(4);
  const auto trips = MakeTrips(net, 10, 5);
  CandidateGenConfig cfg;
  cfg.strategy = GetParam();
  cfg.k = 6;
  for (size_t i = 0; i < trips.size(); ++i) {
    const RankingQuery q = GenerateQuery(net, trips[i], static_cast<int>(i), cfg);
    EXPECT_EQ(q.source, trips[i].source());
    EXPECT_EQ(q.destination, trips[i].destination());
    EXPECT_GE(q.candidates.size(), 1u);
    EXPECT_LE(q.candidates.size(), 6u);
    for (const RankingCandidate& c : q.candidates) {
      EXPECT_GE(c.label, 0.0);
      EXPECT_LE(c.label, 1.0);
      EXPECT_EQ(c.path.source(), q.source);
      EXPECT_EQ(c.path.destination(), q.destination);
      // Label really is the weighted Jaccard against the truth.
      EXPECT_NEAR(c.label,
                  routing::WeightedJaccard(net, c.path.edges, q.truth.edges),
                  1e-12);
    }
  }
}

TEST_P(CandidateStrategies, CandidatesAreDistinct) {
  const RoadNetwork net = BuildTestNetwork(8);
  const auto trips = MakeTrips(net, 5, 9);
  CandidateGenConfig cfg;
  cfg.strategy = GetParam();
  cfg.k = 8;
  for (const auto& trip : trips) {
    const RankingQuery q = GenerateQuery(net, trip, 0, cfg);
    std::set<std::vector<graph::VertexId>> seen;
    for (const auto& c : q.candidates) {
      EXPECT_TRUE(seen.insert(c.path.vertices).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, CandidateStrategies,
                         ::testing::Values(CandidateStrategy::kTopK,
                                           CandidateStrategy::kDiversifiedTopK));

TEST(CandidateGeneration, StrategyNames) {
  EXPECT_EQ(CandidateStrategyName(CandidateStrategy::kTopK), "TkDI");
  EXPECT_EQ(CandidateStrategyName(CandidateStrategy::kDiversifiedTopK),
            "D-TkDI");
}

TEST(CandidateGeneration, DiversifiedCoversLowSimilarityRegion) {
  // The motivation for D-TkDI: diversified candidate sets reach further
  // into the low-similarity region instead of piling up near-duplicates of
  // the shortest path, giving the regressor more label coverage.
  const RoadNetwork net = BuildTestNetwork(10);
  const auto trips = MakeTrips(net, 20, 11);
  CandidateGenConfig topk;
  topk.strategy = CandidateStrategy::kTopK;
  topk.k = 8;
  CandidateGenConfig div = topk;
  div.strategy = CandidateStrategy::kDiversifiedTopK;
  // On a small grid the top-k paths are already fairly diverse; a strict
  // threshold is needed for the two strategies to produce different sets.
  div.similarity_threshold = 0.25;

  double min_label_topk = 0.0;
  double min_label_div = 0.0;
  double mean_label_topk = 0.0;
  double mean_label_div = 0.0;
  size_t n_topk = 0;
  size_t n_div = 0;
  for (const auto& trip : trips) {
    const auto qt = GenerateQuery(net, trip, 0, topk);
    const auto qd = GenerateQuery(net, trip, 0, div);
    auto min_label = [](const RankingQuery& q) {
      double lo = 1.0;
      for (const auto& c : q.candidates) lo = std::min(lo, c.label);
      return lo;
    };
    min_label_topk += min_label(qt);
    min_label_div += min_label(qd);
    for (const auto& c : qt.candidates) {
      mean_label_topk += c.label;
      ++n_topk;
    }
    for (const auto& c : qd.candidates) {
      mean_label_div += c.label;
      ++n_div;
    }
  }
  mean_label_topk /= static_cast<double>(n_topk);
  mean_label_div /= static_cast<double>(n_div);
  // Diversified sets reach lower-similarity candidates both in the
  // aggregate minimum and on average.
  EXPECT_LT(min_label_div, min_label_topk);
  EXPECT_LT(mean_label_div, mean_label_topk);
}

TEST(Dataset, SplitIsDisjointAndComplete) {
  const RoadNetwork net = BuildTestNetwork(12);
  const auto trips = MakeTrips(net, 30, 13);
  CandidateGenConfig cfg;
  cfg.k = 4;
  RankingDataset dataset;
  dataset.queries = GenerateQueries(net, trips, cfg);

  pathrank::Rng rng(14);
  const DatasetSplit split = SplitDataset(dataset, 0.6, 0.2, rng);
  EXPECT_EQ(split.train.num_queries() + split.validation.num_queries() +
                split.test.num_queries(),
            dataset.num_queries());
  std::set<int> ids;
  for (const auto& q : split.train.queries) ids.insert(q.query_id);
  for (const auto& q : split.validation.queries) {
    EXPECT_FALSE(ids.count(q.query_id));
    ids.insert(q.query_id);
  }
  for (const auto& q : split.test.queries) {
    EXPECT_FALSE(ids.count(q.query_id));
  }
  EXPECT_NEAR(static_cast<double>(split.train.num_queries()), 18.0, 1.0);
}

TEST(Dataset, StatsAreSane) {
  const RoadNetwork net = BuildTestNetwork(16);
  const auto trips = MakeTrips(net, 10, 17);
  CandidateGenConfig cfg;
  cfg.k = 5;
  RankingDataset dataset;
  dataset.queries = GenerateQueries(net, trips, cfg);
  const DatasetStats stats = ComputeStats(dataset);
  EXPECT_EQ(stats.num_queries, 10u);
  EXPECT_GT(stats.num_examples, 10u);
  EXPECT_GT(stats.mean_path_vertices, 2.0);
  EXPECT_GE(stats.min_label, 0.0);
  EXPECT_LE(stats.max_label, 1.0);
  EXPECT_FALSE(StatsToString(stats).empty());
}

TEST(Batcher, CoversEveryExampleExactlyOnce) {
  const RoadNetwork net = BuildTestNetwork(18);
  const auto trips = MakeTrips(net, 12, 19);
  CandidateGenConfig cfg;
  cfg.k = 4;
  RankingDataset dataset;
  dataset.queries = GenerateQueries(net, trips, cfg);
  auto examples = FlattenDataset(dataset);
  const size_t total = examples.size();

  Batcher batcher(std::move(examples), 8);
  size_t seen = 0;
  for (size_t b = 0; b < batcher.num_batches(); ++b) {
    const ModelBatch batch = batcher.GetBatch(b);
    EXPECT_EQ(batch.sequences.batch_size, batch.labels.size());
    EXPECT_LE(batch.sequences.batch_size, 8u);
    seen += batch.sequences.batch_size;
  }
  EXPECT_EQ(seen, total);
}

TEST(Batcher, BucketingLimitsPadding) {
  const RoadNetwork net = BuildTestNetwork(20);
  const auto trips = MakeTrips(net, 20, 21);
  CandidateGenConfig cfg;
  cfg.k = 6;
  RankingDataset dataset;
  dataset.queries = GenerateQueries(net, trips, cfg);
  Batcher batcher(FlattenDataset(dataset), 16);
  // Within each batch the spread between min and max true length must be
  // modest thanks to the global length sort.
  for (size_t b = 0; b < batcher.num_batches(); ++b) {
    const ModelBatch batch = batcher.GetBatch(b);
    int32_t lo = batch.sequences.lengths[0];
    int32_t hi = lo;
    for (int32_t len : batch.sequences.lengths) {
      lo = std::min(lo, len);
      hi = std::max(hi, len);
    }
    EXPECT_EQ(hi, static_cast<int32_t>(batch.sequences.max_len));
  }
}

TEST(Batcher, ReshuffleKeepsCoverage) {
  const RoadNetwork net = BuildTestNetwork(22);
  const auto trips = MakeTrips(net, 8, 23);
  CandidateGenConfig cfg;
  cfg.k = 3;
  RankingDataset dataset;
  dataset.queries = GenerateQueries(net, trips, cfg);
  Batcher batcher(FlattenDataset(dataset), 4);
  pathrank::Rng rng(24);
  std::multiset<float> labels_before;
  for (size_t b = 0; b < batcher.num_batches(); ++b) {
    for (float l : batcher.GetBatch(b).labels) labels_before.insert(l);
  }
  batcher.Reshuffle(rng);
  std::multiset<float> labels_after;
  for (size_t b = 0; b < batcher.num_batches(); ++b) {
    for (float l : batcher.GetBatch(b).labels) labels_after.insert(l);
  }
  EXPECT_EQ(labels_before, labels_after);
}

TEST(Batcher, RowRangesTileTheBatch) {
  const RoadNetwork net = BuildTestNetwork(25);
  const auto trips = MakeTrips(net, 10, 26);
  CandidateGenConfig cfg;
  cfg.k = 5;
  RankingDataset dataset;
  dataset.queries = GenerateQueries(net, trips, cfg);
  Batcher batcher(FlattenDataset(dataset), 8);
  pathrank::Rng rng(27);
  batcher.Reshuffle(rng);
  for (size_t b = 0; b < batcher.num_batches(); ++b) {
    const ModelBatch whole = batcher.GetBatch(b);
    const size_t rows = batcher.BatchRows(b);
    ASSERT_EQ(whole.labels.size(), rows);
    // Rows [0, mid) and [mid, rows) concatenate to the whole batch, in
    // order.
    const size_t mid = rows / 2;
    std::vector<float> labels;
    std::vector<int32_t> lengths;
    for (const auto [lo, hi] : {std::pair<size_t, size_t>{0, mid},
                                std::pair<size_t, size_t>{mid, rows}}) {
      if (lo == hi) continue;
      const ModelBatch part = batcher.GetBatchRows(b, lo, hi);
      EXPECT_EQ(part.sequences.batch_size, hi - lo);
      labels.insert(labels.end(), part.labels.begin(), part.labels.end());
      lengths.insert(lengths.end(), part.sequences.lengths.begin(),
                     part.sequences.lengths.end());
    }
    EXPECT_EQ(labels, whole.labels);
    EXPECT_EQ(lengths, whole.sequences.lengths);
  }
  EXPECT_THROW(batcher.GetBatchRows(0, 0, batcher.BatchRows(0) + 1),
               std::logic_error);
}

TEST(Batcher, RejectsEmptyInput) {
  EXPECT_THROW(Batcher({}, 4), std::logic_error);
}

}  // namespace
}  // namespace pathrank::data
