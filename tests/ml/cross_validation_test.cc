#include "src/ml/cross_validation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/ml/metrics.h"
#include "src/ml/random_forest.h"
#include "src/util/random.h"

namespace fxrz {
namespace {

TEST(KFoldTest, PartitionsAllIndices) {
  const std::vector<Fold> folds = KFoldSplit(100, 5, 1);
  ASSERT_EQ(folds.size(), 5u);
  std::set<size_t> all_test;
  for (const Fold& f : folds) {
    EXPECT_EQ(f.train.size() + f.test.size(), 100u);
    for (size_t i : f.test) {
      EXPECT_TRUE(all_test.insert(i).second) << "index " << i << " repeated";
    }
    // Train and test are disjoint.
    std::set<size_t> train_set(f.train.begin(), f.train.end());
    for (size_t i : f.test) EXPECT_EQ(train_set.count(i), 0u);
  }
  EXPECT_EQ(all_test.size(), 100u);
}

TEST(KFoldTest, BalancedFoldSizes) {
  const std::vector<Fold> folds = KFoldSplit(10, 3, 2);
  std::vector<size_t> sizes;
  for (const Fold& f : folds) sizes.push_back(f.test.size());
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, std::vector<size_t>({3, 3, 4}));
}

TEST(KFoldTest, DeterministicForSeed) {
  const auto a = KFoldSplit(50, 5, 7);
  const auto b = KFoldSplit(50, 5, 7);
  for (size_t f = 0; f < a.size(); ++f) {
    EXPECT_EQ(a[f].test, b[f].test);
  }
}

TEST(KFoldDeathTest, RejectsKLargerThanN) {
  EXPECT_DEATH(KFoldSplit(3, 5, 1), "");
}

TEST(CrossValidationTest, GoodModelScoresBetterThanBad) {
  Rng rng(61);
  FeatureMatrix x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double v = rng.Uniform(1, 10);
    x.push_back({v});
    y.push_back(3 * v);
  }
  const RegressorFactory good = [] {
    RandomForestParams p;
    p.num_trees = 30;
    return std::make_unique<RandomForestRegressor>(p);
  };
  const RegressorFactory bad = [] {
    RandomForestParams p;
    p.num_trees = 1;
    p.max_depth = 0;  // single-leaf trees: predicts the global mean
    return std::make_unique<RandomForestRegressor>(p);
  };
  const double good_err = CrossValidationError(good, x, y, 4, 1);
  const double bad_err = CrossValidationError(bad, x, y, 4, 1);
  EXPECT_LT(good_err, bad_err);
}

TEST(GridSearchTest, PicksTheBetterCandidate) {
  Rng rng(62);
  FeatureMatrix x;
  std::vector<double> y;
  for (int i = 0; i < 150; ++i) {
    const double v = rng.Uniform(1, 10);
    x.push_back({v});
    y.push_back(v * v);
  }
  std::vector<RegressorFactory> candidates;
  candidates.push_back([] {  // crippled
    RandomForestParams p;
    p.num_trees = 1;
    p.max_depth = 0;
    return std::make_unique<RandomForestRegressor>(p);
  });
  candidates.push_back([] {  // reasonable
    RandomForestParams p;
    p.num_trees = 40;
    p.max_depth = 12;
    return std::make_unique<RandomForestRegressor>(p);
  });
  EXPECT_EQ(GridSearchBest(candidates, x, y, 4, 3), 1u);
}

TEST(MetricsTest, KnownValues) {
  EXPECT_DOUBLE_EQ(MeanAbsolutePercentageError({10, 20}, {11, 18}), 0.1);
}

TEST(MetricsDeathTest, RejectsSizeMismatch) {
  EXPECT_DEATH(MeanAbsolutePercentageError({1.0}, {1.0, 2.0}), "");
  EXPECT_DEATH(MeanAbsolutePercentageError({}, {}), "");
}

}  // namespace
}  // namespace fxrz
