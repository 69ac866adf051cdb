#include "perfbench/layers.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/admission/admission_controller.h"
#include "src/agg/aggregator.h"
#include "src/common/rng.h"
#include "src/fl/client.h"
#include "src/fl/cost_model.h"
#include "src/models/model_zoo.h"
#include "src/models/surrogate_accuracy.h"
#include "src/net/transport.h"
#include "src/nn/mlp.h"
#include "src/nn/optimizer.h"
#include "src/nn/tensor.h"
#include "src/opt/compress.h"
#include "src/opt/prune.h"
#include "src/opt/quantize.h"

namespace perfbench {
namespace {

using floatfl::Client;
using floatfl::ExperimentConfig;
using floatfl::Rng;
using floatfl::Tensor;

// Clients and ladder steps of the trace and transport probes.
constexpr size_t kLadderClients = 30;
constexpr size_t kLadderSteps = 100;

// Calls `fn` at least `min_calls` times and until `budget_s` has passed;
// returns the median seconds per call.
template <typename Fn>
double MedianCallSeconds(Fn&& fn, double budget_s, size_t min_calls = 3) {
  std::vector<double> per_call;
  const int64_t start = NowNs();
  while (per_call.size() < min_calls ||
         static_cast<double>(NowNs() - start) * 1e-9 < budget_s) {
    const int64_t t = NowNs();
    fn();
    per_call.push_back(static_cast<double>(NowNs() - t) * 1e-9);
  }
  return Median(per_call);
}

Tensor RandomTensor(size_t rows, size_t cols, Rng& rng) {
  Tensor t(rows, cols);
  for (float& v : t.flat()) {
    v = static_cast<float>(rng.Normal());
  }
  return t;
}

std::vector<float> RandomVector(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = static_cast<float>(rng.Normal(0.0, 0.05));
  }
  return v;
}

std::vector<size_t> ModelDims(const floatfl::RealFlConfig& c) {
  std::vector<size_t> dims = {c.input_dim};
  dims.insert(dims.end(), c.hidden_dims.begin(), c.hidden_dims.end());
  dims.push_back(c.num_classes);
  return dims;
}

void ProbeSimLayers(const ExperimentConfig& sim, double slice_s,
                    std::map<std::string, double>& m) {
  const floatfl::DatasetSpec& spec = floatfl::GetDatasetSpec(sim.dataset);
  std::vector<Client> clients;
  m["fl.build_population_ms"] =
      1e3 * MedianCallSeconds(
                [&] {
                  clients = floatfl::BuildPopulation(spec, sim.num_clients, sim.alpha,
                                                     sim.interference, sim.seed);
                },
                slice_s, 2);
  const double spacing = floatfl::AutoDeadlineSeconds(sim, clients);
  const size_t ladder_clients = std::min(kLadderClients, clients.size());

  // Trace queries over a monotonic ladder of round starts, one query per
  // client per step, as the observe/simulate path issues them.
  auto ladder_ns = [&](auto&& query) {
    const int64_t t = NowNs();
    for (size_t step = 1; step <= kLadderSteps; ++step) {
      for (size_t c = 0; c < ladder_clients; ++c) {
        query(clients[c], static_cast<double>(step) * spacing);
      }
    }
    return static_cast<double>(NowNs() - t) / static_cast<double>(kLadderSteps * ladder_clients);
  };
  m["trace.network_ns"] =
      ladder_ns([](Client& c, double s) { return c.network().BandwidthMbpsAt(s); });
  m["trace.compute_ns"] = ladder_ns([](Client& c, double s) { return c.compute().GflopsAt(s); });
  m["trace.interference_ns"] =
      ladder_ns([](Client& c, double s) { return c.interference().At(s).cpu; });

  // One surrogate round over a 30-client cohort spread across the population.
  {
    std::vector<floatfl::ClientShard> shards;
    shards.reserve(clients.size());
    for (const Client& c : clients) {
      shards.push_back(c.shard());
    }
    floatfl::SurrogateAccuracyModel model(
        floatfl::SurrogateConfigFor(spec, static_cast<double>(sim.clients_per_round)), shards);
    std::vector<floatfl::ClientContribution> cohort(30);
    for (size_t i = 0; i < cohort.size(); ++i) {
      cohort[i].client_id = i * clients.size() / cohort.size();
    }
    m["models.round_update_us"] =
        1e6 * MedianCallSeconds([&] { model.RoundUpdate(cohort); }, slice_s, 10);
  }

  // Upload transfers under the chaos loss settings.
  {
    const ExperimentConfig chaos = ChaosConfig(sim.seed, 1);
    const floatfl::Transport transport(chaos.faults, sim.seed);
    floatfl::TransferOptions opts;
    opts.payload_mb = floatfl::GetModelProfile(sim.model).weight_mb;
    opts.budget_s = spacing;
    opts.leg = floatfl::TransferLeg::kUpload;
    opts.resumable = chaos.faults.resumable_uploads;
    double wire_mb = 0.0;
    double retransmitted_mb = 0.0;
    const int64_t t = NowNs();
    for (size_t step = 1; step <= kLadderSteps; ++step) {
      // Later than every trace-ladder query: traces are read forward only.
      opts.start_s = static_cast<double>(kLadderSteps + step) * spacing;
      for (size_t c = 0; c < ladder_clients; ++c) {
        const floatfl::TransferResult r =
            transport.Transfer(step, c, clients[c].network(), opts);
        wire_mb += r.wire_mb;
        retransmitted_mb += r.retransmitted_mb;
      }
    }
    m["net.transfer_us"] = static_cast<double>(NowNs() - t) * 1e-3 /
                           static_cast<double>(kLadderSteps * ladder_clients);
    m["net.retransmit_frac"] = wire_mb > 0.0 ? retransmitted_mb / wire_mb : 0.0;

    // 30-arrival ingestion bursts through the chaos admission gate.
    floatfl::AdmissionController admission(chaos.admission);
    std::vector<floatfl::AdmissionController::Arrival> burst(30);
    uint64_t round = 0;
    m["admission.admit_us"] = 1e6 * MedianCallSeconds(
                                        [&] {
                                          for (size_t i = 0; i < burst.size(); ++i) {
                                            burst[i].client_id =
                                                (round * 7 + i * 13) % sim.num_clients;
                                            burst[i].round = round;
                                            burst[i].utility = 1.0;
                                          }
                                          admission.Admit(round++, burst, nullptr);
                                        },
                                        slice_s, 10);
  }
}

void ProbeRealLayers(const floatfl::RealFlConfig& real, double slice_s,
                     std::map<std::string, double>& m) {
  Rng rng(real.seed);
  const std::vector<size_t> dims = ModelDims(real);
  const size_t batch = real.clients_per_round;

  // Matrix products at batch x each layer's shape: forward, input gradient,
  // weight gradient.
  {
    std::vector<Tensor> x, w, g;
    double flops = 0.0;
    for (size_t l = 0; l + 1 < dims.size(); ++l) {
      x.push_back(RandomTensor(batch, dims[l], rng));
      w.push_back(RandomTensor(dims[l], dims[l + 1], rng));
      g.push_back(RandomTensor(batch, dims[l + 1], rng));
      flops += 2.0 * static_cast<double>(batch * dims[l] * dims[l + 1]);
    }
    auto gflops = [&](auto&& product) {
      return flops * 1e-9 / MedianCallSeconds(
                                [&] {
                                  for (size_t l = 0; l < x.size(); ++l) {
                                    product(l);
                                  }
                                },
                                slice_s / 3.0, 10);
    };
    m["nn.matmul_gflops"] = gflops([&](size_t l) { (void)x[l].MatMul(w[l]); });
    m["nn.matmul_nt_gflops"] = gflops([&](size_t l) { (void)g[l].MatMulTransposed(w[l]); });
    m["nn.matmul_tn_gflops"] = gflops([&](size_t l) { (void)x[l].TransposedMatMul(g[l]); });
  }

  // Local SGD on a shard-sized input (the real engine's median shard is 60
  // samples).
  {
    floatfl::Mlp model(dims, rng);
    const size_t samples = 60;
    const Tensor inputs = RandomTensor(samples, real.input_dim, rng);
    std::vector<int> labels(samples);
    for (size_t i = 0; i < samples; ++i) {
      labels[i] = static_cast<int>(rng.UniformInt(real.num_classes));
    }
    size_t trained = 0;
    const double per_call = MedianCallSeconds(
        [&] { trained = floatfl::TrainSgd(model, inputs, labels, real.sgd, rng).samples; },
        slice_s, 5);
    m["nn.train_samples_per_s"] = static_cast<double>(trained) / per_call;
  }

  // Server aggregation of one round's uploads.
  floatfl::Mlp reference(dims, rng);
  const std::vector<float> global = reference.GetParameters();
  {
    std::vector<std::vector<float>> updates;
    std::vector<double> weights;
    for (size_t i = 0; i < batch; ++i) {
      updates.push_back(RandomVector(global.size(), rng));
      weights.push_back(50.0 + static_cast<double>(i));
    }
    auto agg_ms = [&](floatfl::AggregatorKind kind) {
      floatfl::AggregatorConfig config;
      config.kind = kind;
      const std::unique_ptr<floatfl::Aggregator> aggregator = floatfl::MakeAggregator(config);
      return 1e3 * MedianCallSeconds(
                       [&] { (void)aggregator->Aggregate(updates, weights, global, nullptr); },
                       slice_s / 2.0, 5);
    };
    m["agg.fedavg_ms"] = agg_ms(floatfl::AggregatorKind::kFedAvg);
    m["agg.trimmed_ms"] = agg_ms(floatfl::AggregatorKind::kTrimmedMean);
  }

  // Upload transforms on one update, as the real engine applies them.
  {
    const std::vector<float> update = RandomVector(global.size(), rng);
    const double mb = static_cast<double>(update.size() * sizeof(float)) / 1e6;
    m["opt.quantize_mb_s"] =
        mb / MedianCallSeconds(
                 [&] { (void)floatfl::Dequantize(floatfl::Quantize(update, 8)); }, slice_s / 3.0,
                 10);
    std::vector<float> scratch;
    m["opt.prune_mb_s"] = mb / MedianCallSeconds(
                                   [&] {
                                     scratch = update;
                                     floatfl::MagnitudePrune(scratch, 0.5);
                                   },
                                   slice_s / 3.0, 10);
    m["opt.compress_mb_s"] =
        mb / MedianCallSeconds(
                 [&] { (void)floatfl::RleCompress(floatfl::Quantize(update, 16).data); },
                 slice_s / 3.0, 10);
  }

  // Test-set evaluation of a freshly built real engine.
  {
    floatfl::RealFlEngine engine(real);
    m["fl.evaluate_ms"] =
        1e3 * MedianCallSeconds([&] { (void)engine.EvaluateAccuracy(); }, slice_s, 5);
  }
}

}  // namespace

void ProbeLayers(const Workload& workload, double budget_s,
                 std::map<std::string, double>* metrics) {
  const double slice_s = budget_s / 10.0;
  ProbeSimLayers(workload.probe_sim, slice_s, *metrics);
  ProbeRealLayers(workload.probe_real, slice_s, *metrics);
}

}  // namespace perfbench
