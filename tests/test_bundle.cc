// Tests for self-describing model bundles (train once, reopen anywhere).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/bundle.h"
#include "core/naru_estimator.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "query/workload.h"

namespace naru {
namespace {

TEST(Bundle, RoundTripReproducesEstimates) {
  Table t = MakeRandomTable(2000, {8, 40, 6}, 3, 1.1);
  std::vector<size_t> domains = {t.column(0).DomainSize(),
                                 t.column(1).DomainSize(),
                                 t.column(2).DomainSize()};
  MadeModel::Config cfg;
  cfg.hidden_sizes = {32, 16};
  cfg.encoder.onehot_threshold = 10;
  cfg.encoder.embed_dim = 8;
  cfg.seed = 5;
  MadeModel model(domains, cfg);
  TrainerConfig tcfg;
  tcfg.epochs = 3;
  Trainer trainer(&model, tcfg);
  trainer.Train(t);

  const std::string path = testing::TempDir() + "/naru_bundle_test";
  ASSERT_TRUE(SaveModelBundle(path, &model).ok());

  auto loaded = LoadModelBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  MadeModel* reopened = loaded.ValueOrDie().get();
  ASSERT_EQ(reopened->num_columns(), 3u);
  EXPECT_EQ(reopened->DomainSize(1), domains[1]);
  EXPECT_EQ(reopened->config().hidden_sizes, cfg.hidden_sizes);

  // Same sampler seed => bit-identical estimates.
  WorkloadConfig wcfg;
  wcfg.num_queries = 8;
  wcfg.min_filters = 1;
  wcfg.max_filters = 3;
  wcfg.range_domain_threshold = 6;
  wcfg.seed = 9;
  for (const auto& q : GenerateWorkload(t, wcfg)) {
    NaruEstimatorConfig ncfg;
    ncfg.num_samples = 300;
    ncfg.sampler_seed = 77;
    NaruEstimator ea(&model, ncfg, 0, "orig");
    NaruEstimator eb(reopened, ncfg, 0, "loaded");
    EXPECT_DOUBLE_EQ(ea.EstimateSelectivity(q), eb.EstimateSelectivity(q));
  }
  std::remove(path.c_str());
  std::remove((path + ".weights").c_str());
}

TEST(Bundle, MissingManifestFails) {
  EXPECT_FALSE(LoadModelBundle("/nonexistent/bundle").ok());
}

TEST(Bundle, CorruptManifestFails) {
  const std::string path = testing::TempDir() + "/naru_bad_bundle";
  FILE* f = fopen(path.c_str(), "w");
  fputs("not-a-bundle\n", f);
  fclose(f);
  EXPECT_FALSE(LoadModelBundle(path).ok());
  std::remove(path.c_str());
}

TEST(Bundle, InconsistentDomainsFail) {
  const std::string path = testing::TempDir() + "/naru_bad_bundle2";
  FILE* f = fopen(path.c_str(), "w");
  fputs("naru-bundle-v1\ncolumns 3\ndomains 4 5\nhidden 8\n", f);
  fclose(f);
  EXPECT_FALSE(LoadModelBundle(path).ok());
  std::remove(path.c_str());
}

TEST(Bundle, ZeroSizesAreInvalidArgument) {
  // A hostile manifest must come back as a typed error, not abort the
  // process that loads it (naru_cli serve loads bundles this way).
  const std::string path = testing::TempDir() + "/naru_zero_size_bundle";
  for (const char* manifest :
       {"naru-bundle-v1\ncolumns 2\ndomains 0 5\nhidden 8\n",
        "naru-bundle-v1\ncolumns 2\ndomains 4 5\nhidden 8 0\n",
        "naru-bundle-v1\ncolumns 2\ndomains 40 5\nhidden 8\n"
        "onehot_threshold 16\nembed_dim 0\n"}) {
    FILE* f = fopen(path.c_str(), "w");
    fputs(manifest, f);
    fclose(f);
    const auto loaded = LoadModelBundle(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << manifest << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(Bundle, OversizedParameterNameIsIOError) {
  // A weights file whose first parameter claims a 1 MiB name in a 4 KiB
  // file (enough bytes for the manifest's model, so the manifest bound
  // passes): the loader must refuse before allocating for the claim.
  const std::string path = testing::TempDir() + "/naru_long_name_bundle";
  FILE* f = fopen(path.c_str(), "w");
  fputs("naru-bundle-v1\ncolumns 2\ndomains 4 5\nhidden 8\n", f);
  fclose(f);
  std::string weights = "NARUPRM1";
  const uint64_t count = 1;
  const uint32_t name_len = 1u << 20;
  weights.append(reinterpret_cast<const char*>(&count), sizeof(count));
  weights.append(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  weights.resize(4096, 'x');
  f = fopen((path + ".weights").c_str(), "wb");
  fwrite(weights.data(), 1, weights.size(), f);
  fclose(f);
  const auto loaded = LoadModelBundle(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
      << loaded.status().ToString();
  // The bound itself refused the file, not a short read after allocating.
  EXPECT_NE(loaded.status().message().find("parameter name length"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
  std::remove((path + ".weights").c_str());
}

TEST(Bundle, ManifestLargerThanWeightsIsInvalidArgument) {
  // Sizes that ask for far more parameter bytes than the 4 KiB weights file
  // holds (the second and third overflow 64 bits) are refused before the
  // model is built: building it would ask for exabytes and throw.
  const std::string path = testing::TempDir() + "/naru_oversized_bundle";
  FILE* f = fopen((path + ".weights").c_str(), "wb");
  const std::string weights(4096, 'x');
  fwrite(weights.data(), 1, weights.size(), f);
  fclose(f);
  for (const char* manifest :
       {"naru-bundle-v1\ncolumns 2\ndomains 4 5\n"
        "hidden 2000000000 2000000000\n",
        "naru-bundle-v1\ncolumns 2\ndomains 4 5\n"
        "hidden 8000000000 8000000000\n",
        "naru-bundle-v1\ncolumns 2\ndomains 4 5000000000000\nhidden 8\n"
        "embed_dim 5000000000000\n",
        // Small enough not to overflow, still more than the file holds.
        "naru-bundle-v1\ncolumns 2\ndomains 4 5\nhidden 32 32\n"}) {
    f = fopen(path.c_str(), "w");
    fputs(manifest, f);
    fclose(f);
    const auto loaded = LoadModelBundle(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << manifest << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("parameter bytes"),
              std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
  std::remove((path + ".weights").c_str());
}

}  // namespace
}  // namespace naru
