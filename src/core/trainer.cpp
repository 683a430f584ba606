#include "core/trainer.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace pathrank::core {
namespace {

/// Copies parameter values into `snap`, reusing its storage (the snapshot
/// is refreshed on every validation improvement, so reallocation here was
/// measurable on small workloads).
void SnapshotValuesInto(const nn::ParameterList& params,
                        std::vector<nn::Matrix>* snap) {
  snap->resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    nn::Matrix& dst = (*snap)[i];
    const nn::Matrix& src = params[i]->value;
    dst.ResizeNoZero(src.rows(), src.cols());
    std::copy(src.data(), src.data() + src.size(), dst.data());
  }
}

void RestoreValues(const nn::ParameterList& params,
                   const std::vector<nn::Matrix>& snap) {
  PR_CHECK(snap.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = snap[i];
  }
}

/// Number of contiguous row shards every logical batch is cut into. A
/// constant rather than the pool size, so the gradient reduction (and with
/// it every trained weight) is the same for any thread count: the pool
/// only decides which thread runs which shard.
constexpr size_t kGradientShards = 4;

/// Per-shard state for data-parallel training. Shard 0 aliases the
/// caller's model; shards 1..S-1 own replicas initialised to identical
/// values and refreshed by a value broadcast after each optimizer step,
/// so all replicas stay bitwise equal throughout.
struct Shard {
  PathRankModel* model = nullptr;
  std::unique_ptr<PathRankModel> owned;
  nn::ParameterList params;
  // Per-batch scratch (loss gradients) and results.
  std::vector<float> d_scores;
  std::vector<float> d_aux_length;
  std::vector<float> d_aux_time;
  double loss_sum = 0.0;  // loss * rows for the shard's rows
  size_t rows = 0;
};

}  // namespace

TrainHistory TrainPathRank(PathRankModel& model,
                           const data::RankingDataset& train,
                           const data::RankingDataset& validation,
                           const TrainerConfig& config) {
  PR_CHECK(config.epochs >= 1);
  pathrank::Rng rng(config.seed);
  data::Batcher batcher(data::FlattenDataset(train), config.batch_size);

  nn::ScheduleConfig schedule;
  schedule.type = config.schedule;
  schedule.base_lr = config.learning_rate;
  schedule.total_epochs = config.epochs;
  schedule.min_lr = config.learning_rate * 0.01;

  // Data-parallel setup: every logical batch is cut into the same
  // kGradientShards contiguous row shards whatever the pool size; each
  // shard's loss gradients are weighted by its share of the batch, the
  // shard gradients are summed in shard order and one optimizer step is
  // taken per batch. Training is therefore bit-reproducible for a fixed
  // seed, any thread count, and batch_size is the effective batch.
  const size_t max_rows =
      std::min(config.batch_size, batcher.num_examples());
  const size_t num_replicas = NumShardsFor(max_rows, kGradientShards);
  std::vector<Shard> shards(num_replicas);
  for (size_t s = 0; s < num_replicas; ++s) {
    if (s == 0) {
      shards[s].model = &model;
    } else {
      // Skip-init: the replica's values are copied in wholesale, so the
      // constructor's O(vocab x dim) RNG draws would be wasted work.
      shards[s].owned = std::make_unique<PathRankModel>(
          model.vocab_size(), model.config(), InitMode::kSkipInit);
      shards[s].owned->CopyParametersFrom(model);
      shards[s].model = shards[s].owned.get();
    }
    shards[s].params = shards[s].model->Parameters();
  }
  const nn::ParameterList& params = shards[0].params;
  const size_t num_params = params.size();
  nn::Adam optimizer(config.learning_rate);

  TrainHistory history;
  history.best_val_mae = std::numeric_limits<double>::infinity();
  std::vector<nn::Matrix> best_weights;
  bool have_best = false;
  int epochs_since_best = 0;
  const bool use_validation = !validation.queries.empty();

  const bool multi_task = model.config().multi_task;
  const auto aux_weight = static_cast<float>(model.config().aux_loss_weight);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    pathrank::Stopwatch watch;
    const double lr = nn::LearningRateAt(schedule, epoch);
    optimizer.set_learning_rate(lr);
    batcher.Reshuffle(rng);

    double loss_sum = 0.0;
    size_t example_count = 0;
    for (size_t b = 0; b < batcher.num_batches(); ++b) {
      const size_t rows = batcher.BatchRows(b);
      const size_t used = NumShardsFor(rows, kGradientShards);

      // Forward/backward one row shard per replica; gradients land in
      // each shard's own buffers.
      ParallelForShards(
          0, rows,
          [&](size_t s, size_t lo, size_t hi) {
            Shard& shard = shards[s];
            const data::ModelBatch batch = batcher.GetBatchRows(b, lo, hi);
            const auto outputs = shard.model->ForwardFull(batch.sequences);
            // The loss is a mean over the shard's rows; weighting its
            // gradients by the shard's share of the batch makes the shard
            // sum the gradient of the mean over the whole batch.
            const auto share = static_cast<float>(hi - lo) /
                               static_cast<float>(rows);
            double loss = nn::ComputeLoss(config.loss, outputs.scores,
                                          batch.labels, &shard.d_scores);
            for (float& grad : shard.d_scores) grad *= share;
            if (multi_task) {
              // Auxiliary regression on the candidate's normalised length
              // and travel time; gradients scaled by the auxiliary weight.
              loss += aux_weight *
                      nn::ComputeLoss(config.loss, outputs.aux_length,
                                      batch.norm_lengths,
                                      &shard.d_aux_length);
              loss += aux_weight *
                      nn::ComputeLoss(config.loss, outputs.aux_time,
                                      batch.norm_times, &shard.d_aux_time);
              const float aux_scale = aux_weight * share;
              for (float& grad : shard.d_aux_length) grad *= aux_scale;
              for (float& grad : shard.d_aux_time) grad *= aux_scale;
            }
            shard.rows = hi - lo;
            shard.loss_sum = loss * static_cast<double>(shard.rows);

            nn::ZeroGradients(shard.params);
            if (multi_task) {
              shard.model->BackwardFull(shard.d_scores, shard.d_aux_length,
                                        shard.d_aux_time);
            } else {
              shard.model->Backward(shard.d_scores);
            }
          },
          kGradientShards);

      for (size_t s = 0; s < used; ++s) {
        loss_sum += shards[s].loss_sum;
        example_count += shards[s].rows;
      }

      // Ordered reduction into shard 0: the sum of the weighted shard
      // gradients, shard order fixed, so the result is independent of
      // scheduling.
      if (used > 1) {
        ParallelFor(0, num_params, 1, [&](size_t lo, size_t hi) {
          for (size_t p = lo; p < hi; ++p) {
            if (params[p]->frozen) continue;  // optimizer never applies it
            for (size_t s = 1; s < used; ++s) {
              params[p]->grad.Add(shards[s].params[p]->grad);
            }
          }
        });
      }
      if (config.clip_norm > 0.0) {
        nn::ClipGradientNorm(params, config.clip_norm);
      }

      // One optimizer step on shard 0, then a value broadcast keeps the
      // replicas bitwise equal (frozen parameters never change, so they
      // are skipped).
      optimizer.Step(params);
      if (num_replicas > 1) {
        ParallelForShards(1, num_replicas, [&](size_t, size_t lo, size_t hi) {
          for (size_t s = lo; s < hi; ++s) {
            for (size_t p = 0; p < num_params; ++p) {
              if (params[p]->frozen) continue;
              shards[s].params[p]->value = params[p]->value;
            }
          }
        });
      }
    }

    EpochRecord record;
    record.epoch = epoch;
    record.train_loss = loss_sum / static_cast<double>(example_count);
    record.learning_rate = lr;

    if (use_validation) {
      // Validation scores through the const inference path on the shared
      // model — sharded with per-shard scratch, no replica copies.
      const EvalResult val = Evaluate(model, validation);
      record.val_mae = val.mae;
      record.val_tau = val.kendall_tau;
      if (val.mae < history.best_val_mae) {
        history.best_val_mae = val.mae;
        history.best_epoch = epoch;
        SnapshotValuesInto(params, &best_weights);
        have_best = true;
        epochs_since_best = 0;
      } else {
        ++epochs_since_best;
      }
    }
    record.seconds = watch.ElapsedSeconds();
    history.epochs.push_back(record);

    if (config.verbose) {
      PR_LOG_INFO << "epoch " << epoch << " loss=" << record.train_loss
                  << (use_validation
                          ? " val_mae=" + std::to_string(record.val_mae)
                          : "")
                  << " lr=" << record.learning_rate << " ("
                  << record.seconds << "s, " << batcher.num_batches()
                  << " steps)";
    }
    if (use_validation && config.patience > 0 &&
        epochs_since_best >= config.patience) {
      break;
    }
  }

  if (use_validation && have_best) {
    RestoreValues(params, best_weights);
  }
  return history;
}

}  // namespace pathrank::core
