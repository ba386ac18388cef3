// Tests for the three Table III regressors on shared synthetic problems.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/ml/adaboost.h"
#include "src/ml/random_forest.h"
#include "src/ml/svr.h"
#include "src/util/random.h"
#include "tests/util/workers_parked.h"

namespace fxrz {
namespace {

struct Problem {
  FeatureMatrix x;
  std::vector<double> y;
};

// y = 2*x0 - x1 + noise
Problem LinearProblem(int n, uint64_t seed, double noise) {
  Rng rng(seed);
  Problem p;
  for (int i = 0; i < n; ++i) {
    const double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    p.x.push_back({a, b});
    p.y.push_back(2 * a - b + noise * rng.NextGaussian());
  }
  return p;
}

double TestError(const Regressor& model, const Problem& p) {
  double err = 0.0;
  for (size_t i = 0; i < p.x.size(); ++i) {
    err += std::fabs(model.Predict(p.x[i]) - p.y[i]);
  }
  return err / p.x.size();
}

TEST(RandomForestTest, FitsLinearFunction) {
  const Problem train = LinearProblem(600, 41, 0.0);
  const Problem test = LinearProblem(100, 42, 0.0);
  RandomForestRegressor model;
  model.Fit(train.x, train.y);
  EXPECT_LT(TestError(model, test), 0.25);
}

TEST(RandomForestTest, DeterministicForSeed) {
  const Problem train = LinearProblem(200, 43, 0.1);
  RandomForestParams params;
  params.seed = 99;
  RandomForestRegressor a(params), b(params);
  a.Fit(train.x, train.y);
  b.Fit(train.x, train.y);
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> q = {i * 0.1 - 0.5, 0.3};
    EXPECT_DOUBLE_EQ(a.Predict(q), b.Predict(q));
  }
}

TEST(RandomForestTest, ParallelFitIdenticalToSerial) {
  // Every tree's bootstrap and split seed is drawn serially up front, so
  // fitting the trees in parallel yields the exact same forest -- checked
  // down to the serialized bytes.
  const Problem train = LinearProblem(300, 52, 0.1);
  RandomForestParams params;
  params.num_trees = 24;
  params.seed = 7;

  RandomForestRegressor a(params), b(params);
  WithWorkersParked([&] { a.Fit(train.x, train.y); });
  b.Fit(train.x, train.y);
  std::vector<uint8_t> bytes_a, bytes_b;
  a.Serialize(&bytes_a);
  b.Serialize(&bytes_b);
  EXPECT_EQ(bytes_a, bytes_b);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> q = {i * 0.1 - 1.0, 0.4 - i * 0.05};
    EXPECT_EQ(a.Predict(q), b.Predict(q));
  }
}

TEST(RandomForestTest, PredictBatchMatchesSerialPredict) {
  const Problem train = LinearProblem(200, 53, 0.05);
  const Problem test = LinearProblem(64, 54, 0.0);
  RandomForestRegressor model;
  model.Fit(train.x, train.y);
  const std::vector<double> batch = model.PredictBatch(test.x);
  ASSERT_EQ(batch.size(), test.x.size());
  for (size_t i = 0; i < test.x.size(); ++i) {
    EXPECT_EQ(batch[i], model.Predict(test.x[i])) << i;
  }
}

TEST(RandomForestTest, RobustToNoise) {
  const Problem train = LinearProblem(800, 44, 0.3);
  const Problem test = LinearProblem(100, 45, 0.0);
  RandomForestRegressor model;
  model.Fit(train.x, train.y);
  EXPECT_LT(TestError(model, test), 0.4);
}

TEST(RandomForestTest, SerializeRoundTrip) {
  const Problem train = LinearProblem(300, 46, 0.05);
  RandomForestRegressor model;
  model.Fit(train.x, train.y);
  std::vector<uint8_t> bytes;
  model.Serialize(&bytes);
  RandomForestRegressor restored;
  size_t consumed = 0;
  ASSERT_TRUE(restored.Deserialize(bytes.data(), bytes.size(), &consumed).ok());
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(restored.tree_count(), model.tree_count());
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> q = {i * 0.2 - 1.0, -0.2};
    EXPECT_DOUBLE_EQ(model.Predict(q), restored.Predict(q));
  }
}

TEST(RandomForestTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> garbage(16, 0xEE);
  RandomForestRegressor model;
  size_t consumed = 0;
  EXPECT_FALSE(model.Deserialize(garbage.data(), garbage.size(), &consumed).ok());
}

TEST(AdaBoostTest, FitsStepFunction) {
  FeatureMatrix x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(i < 100 ? -1.0 : 3.0);
  }
  AdaBoostRegressor model;
  model.Fit(x, y);
  EXPECT_NEAR(model.Predict({20.0}), -1.0, 0.5);
  EXPECT_NEAR(model.Predict({180.0}), 3.0, 0.5);
  EXPECT_GE(model.estimator_count(), 1u);
}

TEST(AdaBoostTest, FitsLinearApproximately) {
  const Problem train = LinearProblem(500, 47, 0.05);
  const Problem test = LinearProblem(100, 48, 0.0);
  AdaBoostRegressor model;
  model.Fit(train.x, train.y);
  EXPECT_LT(TestError(model, test), 0.5);
}

TEST(AdaBoostTest, PerfectLearnerShortCircuits) {
  // A constant target is learned exactly by the first stump.
  AdaBoostRegressor model;
  model.Fit({{0.0}, {1.0}, {2.0}}, {4.0, 4.0, 4.0});
  EXPECT_EQ(model.estimator_count(), 1u);
  EXPECT_DOUBLE_EQ(model.Predict({5.0}), 4.0);
}

TEST(SvrTest, FitsLinearWithinTube) {
  const Problem train = LinearProblem(200, 49, 0.0);
  const Problem test = LinearProblem(50, 50, 0.0);
  SvrParams params;
  params.epochs = 500;
  SvrRegressor model(params);
  model.Fit(train.x, train.y);
  EXPECT_LT(TestError(model, test), 0.6);
}

TEST(SvrTest, HandlesConstantTarget) {
  SvrRegressor model;
  model.Fit({{0.0}, {1.0}, {2.0}}, {2.5, 2.5, 2.5});
  EXPECT_NEAR(model.Predict({1.0}), 2.5, 0.3);
}

TEST(SvrTest, StandardizationHandlesWildScales) {
  // Features on wildly different scales must not break the RBF kernel.
  Rng rng(51);
  FeatureMatrix x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.Uniform(0, 1e6), b = rng.Uniform(0, 1e-6);
    x.push_back({a, b});
    y.push_back(a / 1e6);
  }
  SvrRegressor model;
  model.Fit(x, y);
  // Rough fit is enough: prediction moves in the right direction.
  EXPECT_LT(model.Predict({1e5, 5e-7}), model.Predict({9e5, 5e-7}));
}

TEST(RegressorsDeathTest, PredictBeforeFit) {
  RandomForestRegressor rf;
  EXPECT_DEATH(rf.Predict({1.0}), "");
  AdaBoostRegressor ab;
  EXPECT_DEATH(ab.Predict({1.0}), "");
  SvrRegressor svr;
  EXPECT_DEATH(svr.Predict({1.0}), "");
}

}  // namespace
}  // namespace fxrz
