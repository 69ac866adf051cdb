#include "src/fl/client.h"

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/fl/observation.h"

namespace floatfl {
namespace {

TEST(ClientTest, BuildPopulationSizesAndIds) {
  const DatasetSpec& spec = GetDatasetSpec(DatasetId::kFemnist);
  std::vector<Client> clients =
      BuildPopulation(spec, 40, 0.1, InterferenceScenario::kDynamic, 7);
  ASSERT_EQ(clients.size(), 40u);
  for (size_t i = 0; i < clients.size(); ++i) {
    EXPECT_EQ(clients[i].id(), i);
    EXPECT_GT(clients[i].shard().total, 0u);
    EXPECT_EQ(clients[i].shard().class_counts.size(), spec.num_classes);
  }
}

TEST(ClientTest, PopulationDeterministicBySeed) {
  const DatasetSpec& spec = GetDatasetSpec(DatasetId::kCifar10);
  std::vector<Client> a = BuildPopulation(spec, 20, 0.1, InterferenceScenario::kDynamic, 99);
  std::vector<Client> b = BuildPopulation(spec, 20, 0.1, InterferenceScenario::kDynamic, 99);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].shard().class_counts, b[i].shard().class_counts);
    EXPECT_DOUBLE_EQ(a[i].compute().BaseGflops(), b[i].compute().BaseGflops());
    EXPECT_DOUBLE_EQ(a[i].network().NominalMbps(), b[i].network().NominalMbps());
  }
}

TEST(ClientTest, MixesNetworkKinds) {
  const DatasetSpec& spec = GetDatasetSpec(DatasetId::kFemnist);
  std::vector<Client> clients =
      BuildPopulation(spec, 100, 0.1, InterferenceScenario::kNone, 3);
  int four_g = 0;
  for (auto& c : clients) {
    if (c.network().kind() == NetworkKind::kFourG) {
      ++four_g;
    }
  }
  EXPECT_GT(four_g, 50);
  EXPECT_LT(four_g, 90);
}

TEST(ClientTest, ProfileEwmaConstantsArePinned) {
  // The 0.7/0.3 profile-EWMA weights are shared by UpdateDeadlineDiff, the
  // AdaptiveDeadlineController, and the selector net-factor EWMAs, and the
  // goldens pin their literal values bit-for-bit. In particular kObserve is
  // the *literal* 0.3, not 1.0 - 0.7 (which differs in the last ulp).
  EXPECT_EQ(Client::kProfileEwmaRetain, 0.7);
  EXPECT_EQ(Client::kProfileEwmaObserve, 0.3);
  EXPECT_NE(Client::kProfileEwmaObserve, 1.0 - Client::kProfileEwmaRetain);
}

TEST(ClientTest, DeadlineDiffEwmaPersistsAndDecays) {
  const DatasetSpec& spec = GetDatasetSpec(DatasetId::kFemnist);
  std::vector<Client> clients = BuildPopulation(spec, 1, 0.1, InterferenceScenario::kNone, 5);
  Client& c = clients[0];
  EXPECT_DOUBLE_EQ(c.last_deadline_diff, 0.0);
  c.UpdateDeadlineDiff(1.0);
  EXPECT_NEAR(c.last_deadline_diff, 0.3, 1e-12);
  c.UpdateDeadlineDiff(0.0);  // one good round does not erase the profile
  EXPECT_NEAR(c.last_deadline_diff, 0.21, 1e-12);
}

TEST(ObservationTest, ReferenceMediansPositive) {
  const DatasetSpec& spec = GetDatasetSpec(DatasetId::kFemnist);
  std::vector<Client> clients =
      BuildPopulation(spec, 30, 0.1, InterferenceScenario::kDynamic, 13);
  const PopulationReference ref = ComputePopulationReference(clients);
  EXPECT_GT(ref.gflops, 0.0);
  EXPECT_GT(ref.mbps, 0.0);
  EXPECT_GT(ref.memory_gb, 0.0);
}

TEST(ObservationTest, RawObservationIsInterferenceFraction) {
  const DatasetSpec& spec = GetDatasetSpec(DatasetId::kFemnist);
  std::vector<Client> clients = BuildPopulation(spec, 5, 0.1, InterferenceScenario::kNone, 17);
  const PopulationReference ref = ComputePopulationReference(clients);
  const ClientObservation obs = ObserveClient(clients[0], 100.0, ref);
  EXPECT_DOUBLE_EQ(obs.cpu_avail, 1.0);
  EXPECT_DOUBLE_EQ(obs.mem_avail, 1.0);
  EXPECT_DOUBLE_EQ(obs.net_avail, 1.0);
}

TEST(ObservationTest, ReferenceIsPopulationMedian) {
  const DatasetSpec& spec = GetDatasetSpec(DatasetId::kFemnist);
  std::vector<Client> clients =
      BuildPopulation(spec, 31, 0.1, InterferenceScenario::kDynamic, 19);
  std::vector<double> gflops;
  std::vector<double> mbps;
  std::vector<double> mem;
  for (const Client& c : clients) {
    gflops.push_back(c.compute().BaseGflops());
    mbps.push_back(c.network().NominalMbps());
    mem.push_back(c.compute().MemoryGb());
  }
  const PopulationReference ref = ComputePopulationReference(clients);
  EXPECT_EQ(ref.gflops, Percentile(gflops, 50.0));
  EXPECT_EQ(ref.mbps, Percentile(mbps, 50.0));
  EXPECT_EQ(ref.memory_gb, Percentile(mem, 50.0));
}

// The observation is the interference model's availability at the query
// time: a twin population built from the same seed reads the same values.
TEST(ObservationTest, FractionsAreInterferenceAtQueryTime) {
  const DatasetSpec& spec = GetDatasetSpec(DatasetId::kFemnist);
  std::vector<Client> observed =
      BuildPopulation(spec, 30, 0.1, InterferenceScenario::kDynamic, 19);
  std::vector<Client> twin = BuildPopulation(spec, 30, 0.1, InterferenceScenario::kDynamic, 19);
  const PopulationReference ref = ComputePopulationReference(observed);
  for (double t : {50.0, 3600.0, 86400.0}) {
    for (size_t i = 0; i < observed.size(); ++i) {
      const ClientObservation obs = ObserveClient(observed[i], t, ref);
      const ResourceAvailability avail = twin[i].interference().At(t);
      EXPECT_EQ(obs.cpu_avail, avail.cpu) << "client " << i << " t=" << t;
      EXPECT_EQ(obs.mem_avail, avail.memory) << "client " << i << " t=" << t;
      EXPECT_EQ(obs.net_avail, avail.network) << "client " << i << " t=" << t;
      EXPECT_GE(obs.cpu_avail, 0.0);
      EXPECT_LE(obs.cpu_avail, 1.0);
      EXPECT_GE(obs.mem_avail, 0.0);
      EXPECT_LE(obs.mem_avail, 1.0);
      EXPECT_GE(obs.net_avail, 0.0);
      EXPECT_LE(obs.net_avail, 1.0);
    }
  }
}

// The human-feedback signal: the observation carries the client's
// deadline-difference profile, not the last round's raw overshoot.
TEST(ObservationTest, CarriesDeadlineDiffProfile) {
  const DatasetSpec& spec = GetDatasetSpec(DatasetId::kFemnist);
  std::vector<Client> clients = BuildPopulation(spec, 5, 0.1, InterferenceScenario::kNone, 23);
  const PopulationReference ref = ComputePopulationReference(clients);
  Client& c = clients[2];
  EXPECT_EQ(ObserveClient(c, 10.0, ref).deadline_diff, 0.0);
  c.UpdateDeadlineDiff(1.0);
  c.UpdateDeadlineDiff(0.0);
  EXPECT_EQ(ObserveClient(c, 20.0, ref).deadline_diff, c.last_deadline_diff);
  EXPECT_NEAR(ObserveClient(c, 30.0, ref).deadline_diff, 0.21, 1e-12);
}

}  // namespace
}  // namespace floatfl
