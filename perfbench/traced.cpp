// Traced in-process replay for the PathRank benchmark.
//
// Replays a schedule written by perfbench/run.py through the layers'
// public entry points and records a span around every call into a layer:
// name, start, end, parent span and request id. Spans stay in per-thread
// memory and are written out once, when the replay ends. run.py turns
// them into the per-layer metrics (self time = a span's duration minus
// what its children cover).
//
//   traced --network PREFIX --trips CSV --seed S --epochs E
//          --replay FILE --spans OUT [--threads N] [--engine dijkstra|alt]
//
// Only entry points the benchmark treats as stable are called:
// RoutePlanner::Plan, GraphStore::{ApplyTraffic, CaptureForQuery},
// PathToSequence, SequenceBatch::FromSequences,
// ServingEngine::ScoreSequences, AssembleRanking,
// data::GenerateCandidatePaths (through a counting engine wrapper),
// data::GenerateQueries, embedding::TrainNode2Vec, core::TrainPathRank and
// core::Evaluate, plus the constructors and loaders they need.
//
// Replay file, one item per line:
//   P s d            prime the route cache (untimed, before the replay)
//   R due s d        /v1/route          K due s d   /v1/rank
//   T due n e t ...  /v1/traffic with n (edge, travel_time_s) updates
//   E s d            one candidate enumeration for the routing replay
//   W n e t ...      one write-probe traffic batch
// R/K/T lines are the timed requests; their order gives the request ids,
// which match the wire run's ids. `due` is the offset in microseconds at
// which the request may start (-1: as soon as a worker is free), so the
// replay keeps the wire schedule and sees the same contention.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/candidate_generation.h"
#include "data/dataset.h"
#include "embedding/node2vec.h"
#include "graph/graph_io.h"
#include "nn/sequence_batch.h"
#include "routing/cost_model.h"
#include "routing/preprocessed_graph.h"
#include "routing/shortest_path_engine.h"
#include "serving/graph_store.h"
#include "serving/route_planner.h"
#include "serving/serving_engine.h"
#include "traj/trip_io.h"

using namespace pathrank;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ tracing

struct Span {
  const char* name;
  int64_t request;
  int32_t parent;  // index in the same buffer, -1 for a root
  int64_t start_ns;
  int64_t end_ns;
  int64_t a;  // span-specific counts, see the Count() calls
  int64_t b;
  int64_t c;
};

struct SpanBuffer {
  std::vector<Span> spans;
  std::vector<int32_t> open;
  int64_t request = -1;
};

// The calling thread's buffer; null while tracing is off.
thread_local SpanBuffer* t_spans = nullptr;

class Scope {
 public:
  explicit Scope(const char* name) {
    SpanBuffer* buf = t_spans;
    if (buf == nullptr) return;
    index_ = static_cast<int32_t>(buf->spans.size());
    buf->spans.push_back({name, buf->request,
                          buf->open.empty() ? -1 : buf->open.back(), NowNs(),
                          0, 0, 0, 0});
    buf->open.push_back(index_);
  }
  ~Scope() {
    if (index_ < 0) return;
    t_spans->spans[static_cast<size_t>(index_)].end_ns = NowNs();
    t_spans->open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void Count(int64_t a, int64_t b = 0, int64_t c = 0) {
    if (index_ < 0) return;
    Span& s = t_spans->spans[static_cast<size_t>(index_)];
    s.a = a;
    s.b = b;
    s.c = c;
  }

 private:
  int32_t index_ = -1;
};

// Counts every spur search an enumeration runs: one span per FindPath,
// carrying the vertices the engine settled.
class CountingEngine final : public routing::ShortestPathEngine {
 public:
  explicit CountingEngine(std::unique_ptr<routing::ShortestPathEngine> inner)
      : inner_(std::move(inner)) {}

  routing::SearchResult FindPath(graph::VertexId source,
                                 graph::VertexId target,
                                 const routing::EdgeCostFn& cost,
                                 const routing::BanSet* bans,
                                 const CancelToken* cancel) override {
    Scope span("routing.search");
    routing::SearchResult result =
        inner_->FindPath(source, target, cost, bans, cancel);
    span.Count(static_cast<int64_t>(inner_->last_settled_count()));
    return result;
  }
  const char* name() const override { return inner_->name(); }
  size_t last_settled_count() const override {
    return inner_->last_settled_count();
  }

 private:
  std::unique_ptr<routing::ShortestPathEngine> inner_;
};

// ------------------------------------------------------------ replay input

struct Item {
  char kind = 0;
  int64_t due_us = -1;
  graph::VertexId src = 0;
  graph::VertexId dst = 0;
  std::vector<graph::TrafficUpdate> updates;
};

struct Replay {
  std::vector<Item> prime;
  std::vector<Item> requests;
  std::vector<Item> enumerations;
  std::vector<Item> probe;
};

Replay ReadReplay(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open replay " + path);
  Replay replay;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    Item item;
    fields >> item.kind;
    if (item.kind == 'R' || item.kind == 'K' || item.kind == 'T') {
      fields >> item.due_us;
    }
    if (item.kind == 'T' || item.kind == 'W') {
      size_t n = 0;
      fields >> n;
      for (size_t i = 0; i < n; ++i) {
        graph::TrafficUpdate u;
        fields >> u.edge >> u.travel_time_s;
        u.has_travel_time = true;
        item.updates.push_back(u);
      }
    } else {
      fields >> item.src >> item.dst;
    }
    if (!fields) throw std::runtime_error("malformed replay line: " + line);
    switch (item.kind) {
      case 'P': replay.prime.push_back(item); break;
      case 'R': case 'K': case 'T': replay.requests.push_back(item); break;
      case 'E': replay.enumerations.push_back(item); break;
      case 'W': replay.probe.push_back(item); break;
      default: throw std::runtime_error("unknown replay item: " + line);
    }
  }
  return replay;
}

// Runs fn(i) for i in [0, n) on `threads` workers pulling indexes in
// order, each with its own span buffer when `buffers` is non-null.
template <typename Fn>
void RunParallel(size_t n, size_t threads, std::vector<SpanBuffer>* buffers,
                 Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      t_spans = buffers != nullptr ? &(*buffers)[t] : nullptr;
      try {
        for (size_t i = next++; i < n; i = next++) fn(i);
      } catch (...) {
        errors[t] = std::current_exception();
        next = n;
      }
      t_spans = nullptr;
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

// Sleeps until the item's due offset from `origin` (steady-clock ns).
void WaitUntilDue(const Item& item, int64_t origin) {
  if (item.due_us < 0) return;
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(origin + item.due_us * 1000)));
}

// ------------------------------------------------------------ the replay

struct Options {
  std::string network;
  std::string trips;
  uint64_t seed = 11;
  int epochs = 3;
  std::string replay;
  std::string spans;
  size_t threads = 4;
  std::string engine = "dijkstra";
};

data::CandidateGenConfig ServeCandidates() {
  // pathrank_cli serve's defaults: D-TkDI, k = 10, threshold 0.6.
  data::CandidateGenConfig gen;
  gen.strategy = data::CandidateStrategy::kDiversifiedTopK;
  gen.k = 10;
  gen.similarity_threshold = 0.6;
  return gen;
}

// The training pipeline as `pathrank_cli train` runs it.
std::unique_ptr<core::PathRankModel> Train(const Options& opt,
                                           const graph::RoadNetwork& network,
                                           std::vector<std::string>* facts) {
  const auto trips = traj::LoadTrips(network, opt.trips);
  data::RankingDataset dataset;
  {
    Scope span("data.candgen");
    dataset.queries = data::GenerateQueries(network, trips, ServeCandidates());
    span.Count(static_cast<int64_t>(dataset.queries.size()));
  }
  Rng rng(opt.seed);
  const auto split = data::SplitDataset(dataset, 0.8, 0.1, rng);
  embedding::Node2VecConfig n2v;
  n2v.skipgram.dims = 64;
  n2v.seed = opt.seed + 1;
  nn::Matrix table;
  {
    Scope span("embedding.node2vec");
    table = embedding::TrainNode2Vec(network, n2v);
  }
  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = 64;
  model_cfg.hidden_size = 64;
  auto model =
      std::make_unique<core::PathRankModel>(network.num_vertices(), model_cfg);
  model->InitializeEmbedding(table);
  core::TrainerConfig train_cfg;
  train_cfg.epochs = opt.epochs;
  train_cfg.learning_rate = 3e-3;
  core::TrainHistory history;
  {
    Scope span("core.train");
    history = core::TrainPathRank(*model, split.train, split.validation,
                                  train_cfg);
  }
  for (const auto& epoch : history.epochs) {
    facts->push_back("epoch_s " + std::to_string(epoch.seconds));
    facts->push_back("epoch_loss " + std::to_string(epoch.train_loss));
  }
  {
    Scope span("core.evaluate");
    core::Evaluate(*model, split.test);
  }
  return model;
}

class ServingReplay {
 public:
  ServingReplay(const graph::RoadNetwork& network,
                const core::PathRankModel& model)
      : store_(network), engine_(network, model, [] {
          serving::ServingOptions o;
          o.candidates = ServeCandidates();
          return o;
        }()) {
    serving::RoutePlannerConfig config;
    config.store = &store_;
    config.candidates = ServeCandidates();
    planner_ = std::make_unique<serving::RoutePlanner>(
        config, [this](std::vector<routing::Path> paths) {
          return Score(std::move(paths));
        });
  }

  // Scores like the server's backend: sequences -> batch -> forward ->
  // ranking, each step its own span.
  std::vector<serving::ScoredPath> Score(std::vector<routing::Path> paths) {
    nn::SequenceBatch batch;
    {
      Scope span("serving.engine.batch_build");
      std::vector<std::vector<int32_t>> seqs;
      seqs.reserve(paths.size());
      for (const auto& p : paths) seqs.push_back(serving::PathToSequence(p));
      batch = nn::SequenceBatch::FromSequences(seqs);
    }
    std::vector<float> scores;
    {
      Scope span("nn.forward");
      scores = engine_.ScoreSequences(batch);
      int64_t real = 0;
      for (int32_t len : batch.lengths) real += len;
      span.Count(static_cast<int64_t>(batch.batch_size), real,
                 static_cast<int64_t>(batch.batch_size * batch.max_len));
    }
    Scope span("serving.engine.assemble");
    return serving::AssembleRanking(std::move(paths), scores);
  }

  void Prime(const std::vector<Item>& items) {
    for (const Item& item : items) Route(item);
  }

  void Request(const Item& item) {
    switch (item.kind) {
      case 'R':
        Route(item);
        break;
      case 'K':
        Rank(item);
        break;
      default:
        Apply(item);
    }
  }

  void Apply(const Item& item) {
    Scope span("serving.graph_store.apply");
    const auto result = store_.ApplyTraffic(item.updates);
    if (result.status != serving::TrafficStatus::kOk) {
      throw std::runtime_error("traffic batch rejected: " + result.message);
    }
  }

 private:
  void Route(const Item& item) {
    {
      Scope span("serving.graph_store.capture");
      const serving::GraphQueryView view = store_.CaptureForQuery();
    }
    Scope span("serving.route_planner.plan");
    const serving::RouteResult result =
        planner_->Plan(serving::RouteRequest(item.src, item.dst));
    if (result.status != serving::RouteStatus::kOk || result.ranked.empty()) {
      throw std::runtime_error("route failed: " + result.message);
    }
    span.Count(result.cache_hit ? 1 : 0,
               static_cast<int64_t>(result.ranked.size()));
  }

  void Rank(const Item& item) {
    serving::GraphQueryView view;
    {
      Scope span("serving.graph_store.capture");
      view = store_.CaptureForQuery();
    }
    const graph::RoadNetwork& network = view.snapshot->network();
    std::vector<routing::Path> paths;
    {
      Scope span("routing.enumerate");
      CountingEngine engine(
          std::make_unique<routing::DijkstraEngine>(network));
      paths = data::GenerateCandidatePaths(
          network, item.src, item.dst, ServeCandidates(), nullptr, &engine);
      span.Count(static_cast<int64_t>(paths.size()));
    }
    if (paths.empty()) throw std::runtime_error("rank found no candidates");
    Score(std::move(paths));
  }

  serving::GraphStore store_;
  serving::ServingEngine engine_;
  std::unique_ptr<serving::RoutePlanner> planner_;
};

void WriteSpans(const std::string& path,
                const std::vector<std::vector<SpanBuffer>*>& phases,
                const std::vector<std::string>& facts) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  for (const std::string& fact : facts) {
    std::fprintf(out, "F %s\n", fact.c_str());
  }
  int64_t base = 0;
  for (auto* buffers : phases) {
    for (const SpanBuffer& buf : *buffers) {
      for (const Span& s : buf.spans) {
        std::fprintf(out, "S %s %lld %lld %lld %lld %lld %lld %lld\n",
                     s.name,
                     static_cast<long long>(s.request),
                     static_cast<long long>(s.parent < 0 ? -1
                                                         : base + s.parent),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<long long>(s.a), static_cast<long long>(s.b),
                     static_cast<long long>(s.c));
      }
      base += static_cast<int64_t>(buf.spans.size());
    }
  }
  if (std::fclose(out) != 0) throw std::runtime_error("write failed: " + path);
}

int Main(const Options& opt) {
  SetLogLevel(LogLevel::kWarn);
  const graph::RoadNetwork network = graph::LoadNetworkCsv(opt.network);
  const Replay replay = ReadReplay(opt.replay);
  std::vector<std::string> facts;

  // Training layers (single root thread; the library parallelises inside).
  std::vector<SpanBuffer> train_spans(1);
  t_spans = &train_spans[0];
  const auto model = Train(opt, network, &facts);
  t_spans = nullptr;

  // Serving layers: the timed requests on a freshly primed planner, kept
  // to their schedule. The first `untraced` of them also run untraced (one
  // clock pair each), before and after the traced replay, for the
  // overhead ratio.
  const size_t n = replay.requests.size();
  const size_t untraced = std::min<size_t>(n, 256);
  auto untraced_pass = [&] {
    ServingReplay serving(network, *model);
    serving.Prime(replay.prime);
    std::vector<int64_t> plain(untraced, 0);
    const int64_t origin = NowNs();
    RunParallel(untraced, opt.threads, nullptr, [&](size_t i) {
      WaitUntilDue(replay.requests[i], origin);
      const int64_t t0 = NowNs();
      serving.Request(replay.requests[i]);
      plain[i] = NowNs() - t0;
    });
    for (size_t i = 0; i < untraced; ++i) {
      facts.push_back("untraced_ns " + std::to_string(i) + " " +
                      std::to_string(plain[i]));
    }
  };
  untraced_pass();
  std::vector<SpanBuffer> serve_spans(opt.threads);
  {
    ServingReplay serving(network, *model);
    serving.Prime(replay.prime);
    const int64_t origin = NowNs();
    RunParallel(n, opt.threads, &serve_spans, [&](size_t i) {
      const Item& item = replay.requests[i];
      WaitUntilDue(item, origin);
      t_spans->request = static_cast<int64_t>(i);
      Scope root("loadgen.request");
      serving.Request(item);
    });
    // Ingestion probe on the same store, after the requests.
    t_spans = &serve_spans[0];
    for (const Item& item : replay.probe) {
      t_spans->request = -1;
      serving.Apply(item);
    }
    t_spans = nullptr;
  }
  untraced_pass();

  // Routing layer: candidate enumerations through the counting engine.
  std::shared_ptr<const routing::PreprocessedGraph> tables;
  const routing::EdgeCostFn cost = routing::EdgeCostFn::TravelTime(network);
  if (opt.engine == "alt") {
    tables = std::make_shared<const routing::PreprocessedGraph>(network, cost);
  }
  std::vector<SpanBuffer> enum_spans(opt.threads);
  RunParallel(replay.enumerations.size(), opt.threads, &enum_spans,
              [&](size_t i) {
                const Item& item = replay.enumerations[i];
                std::unique_ptr<routing::ShortestPathEngine> inner;
                if (tables != nullptr) {
                  inner = std::make_unique<routing::AltEngine>(network, cost,
                                                               tables);
                } else {
                  inner = std::make_unique<routing::DijkstraEngine>(network);
                }
                CountingEngine engine(std::move(inner));
                t_spans->request = static_cast<int64_t>(i);
                Scope span("routing.enumerate");
                const auto paths = data::GenerateCandidatePaths(
                    network, item.src, item.dst, ServeCandidates(), nullptr,
                    &engine);
                span.Count(static_cast<int64_t>(paths.size()));
              });

  WriteSpans(opt.spans, {&train_spans, &serve_spans, &enum_spans}, facts);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--network") {
      opt.network = value;
    } else if (key == "--trips") {
      opt.trips = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--epochs") {
      opt.epochs = std::atoi(value.c_str());
    } else if (key == "--replay") {
      opt.replay = value;
    } else if (key == "--spans") {
      opt.spans = value;
    } else if (key == "--threads") {
      opt.threads = static_cast<size_t>(std::max(1, std::atoi(value.c_str())));
    } else if (key == "--engine") {
      opt.engine = value;
    } else {
      std::fprintf(stderr, "traced: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.network.empty() || opt.trips.empty() || opt.replay.empty() ||
      opt.spans.empty()) {
    std::fprintf(stderr,
                 "usage: traced --network PREFIX --trips CSV --seed S "
                 "--epochs E --replay FILE --spans OUT [--threads N] "
                 "[--engine dijkstra|alt]\n");
    return 2;
  }
  try {
    return Main(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "traced: %s\n", e.what());
    return 1;
  }
}
