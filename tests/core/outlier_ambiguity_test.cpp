#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <thread>

#include "core/ambiguity.hpp"
#include "core/outlier_detection.hpp"
#include "util/random.hpp"

namespace uwp::core {
namespace {

Matrix distance_matrix(const std::vector<Vec2>& pts) {
  const std::size_t n = pts.size();
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) d(i, j) = distance(pts[i], pts[j]);
  return d;
}

TEST(Subsets, EnumerationCounts) {
  EXPECT_EQ(subsets_of_size(5, 1).size(), 5u);
  EXPECT_EQ(subsets_of_size(5, 2).size(), 10u);
  EXPECT_EQ(subsets_of_size(10, 3).size(), 120u);
  EXPECT_EQ(subsets_of_size(3, 3).size(), 1u);
  EXPECT_TRUE(subsets_of_size(2, 3).empty());
}

TEST(Subsets, ElementsAreSortedAndUnique) {
  for (const auto& s : subsets_of_size(6, 3)) {
    ASSERT_EQ(s.size(), 3u);
    EXPECT_LT(s[0], s[1]);
    EXPECT_LT(s[1], s[2]);
    EXPECT_LT(s[2], 6u);
  }
}

TEST(OutlierDetection, CleanDataPassesThrough) {
  uwp::Rng rng(1);
  const std::vector<Vec2> truth = {{0, 0}, {8, 1}, {3, 9}, {-6, 4}, {-2, -7}};
  const Matrix d = distance_matrix(truth);
  const OutlierResult res =
      localize_with_outlier_detection(d, Matrix::ones(5, 5), {}, rng);
  EXPECT_FALSE(res.outliers_suspected);
  EXPECT_TRUE(res.dropped_links.empty());
  EXPECT_LT(aligned_rmse(res.positions, truth), 0.05);
}

TEST(OutlierDetection, SingleCorruptedLinkFoundAndDropped) {
  uwp::Rng rng(2);
  const std::vector<Vec2> truth = {{0, 0}, {10, 0}, {4, 9}, {-7, 5}, {-3, -8}};
  Matrix d = distance_matrix(truth);
  // Occluded link 0-1: multipath adds ~7 m.
  d(0, 1) = d(1, 0) = d(0, 1) + 7.0;
  const OutlierResult res =
      localize_with_outlier_detection(d, Matrix::ones(5, 5), {}, rng);
  EXPECT_TRUE(res.outliers_suspected);
  ASSERT_EQ(res.dropped_links.size(), 1u);
  EXPECT_EQ(res.dropped_links[0], (Edge{0, 1}));
  EXPECT_LT(aligned_rmse(res.positions, truth), 0.5);
  EXPECT_LT(res.normalized_stress, 1.5);
}

TEST(OutlierDetection, OutlierErrorBelowTriangleInequalityStillCaught) {
  // The paper notes occlusion errors often do NOT break the triangle
  // inequality; stress-based detection must still catch them.
  uwp::Rng rng(3);
  const std::vector<Vec2> truth = {{0, 0}, {12, 0}, {6, 10}, {-8, 6}, {-4, -9}};
  Matrix d = distance_matrix(truth);
  const double bumped = d(0, 1) + 4.0;  // 16 m: within 0-2-1 path (~22 m)
  d(0, 1) = d(1, 0) = bumped;
  EXPECT_LT(bumped, d(0, 2) + d(2, 1));  // triangle inequality intact
  const OutlierResult res =
      localize_with_outlier_detection(d, Matrix::ones(5, 5), {}, rng);
  EXPECT_TRUE(res.outliers_suspected);
  ASSERT_FALSE(res.dropped_links.empty());
  EXPECT_EQ(res.dropped_links[0], (Edge{0, 1}));
}

TEST(OutlierDetection, RefusesDropsThatBreakRealizability) {
  // With only 2n-3 + 1 links, dropping the "outlier" would leave a graph
  // that is not uniquely realizable -> the drop must not be attempted even
  // if it would reduce stress.
  uwp::Rng rng(4);
  const std::vector<Vec2> truth = {{0, 0}, {10, 0}, {5, 8}, {-5, 8}};
  Matrix d = distance_matrix(truth);
  Matrix w = Matrix::ones(4, 4);
  // K4 has 6 edges and is redundantly rigid; removing any one edge leaves a
  // Laman graph which is NOT redundantly rigid -> no drop is allowed.
  d(0, 1) = d(1, 0) = d(0, 1) + 6.0;  // corrupt one link anyway
  const OutlierResult res = localize_with_outlier_detection(d, w, {}, rng);
  EXPECT_TRUE(res.outliers_suspected);
  EXPECT_TRUE(res.dropped_links.empty());
}

TEST(OutlierDetection, MaxOutlierBudgetRespected) {
  uwp::Rng rng(5);
  const std::vector<Vec2> truth = {{0, 0},  {12, 0}, {5, 11}, {-9, 6},
                                   {-5, -9}, {8, -7}};
  Matrix d = distance_matrix(truth);
  // Corrupt 4 links; only up to 3 may be dropped.
  d(0, 1) = d(1, 0) = d(0, 1) + 8.0;
  d(2, 3) = d(3, 2) = d(2, 3) + 7.0;
  d(4, 5) = d(5, 4) = d(4, 5) + 9.0;
  d(1, 4) = d(4, 1) = d(1, 4) + 6.0;
  OutlierOptions opts;
  opts.max_outliers = 3;
  const OutlierResult res = localize_with_outlier_detection(d, Matrix::ones(6, 6),
                                                            opts, rng);
  EXPECT_LE(res.dropped_links.size(), 3u);
}

std::vector<Edge> links_of(const Matrix& w) {
  std::vector<Edge> links;
  for (std::size_t i = 0; i < w.rows(); ++i)
    for (std::size_t j = i + 1; j < w.rows(); ++j)
      if (w(i, j) > 0.0) links.emplace_back(i, j);
  return links;
}

// Noisy distances between n points lifted up to `lift` m out of the plane,
// redrawn until every triangle inequality holds: the layout is not planar,
// but no triangle can say so.
Matrix lifted_distances(std::size_t n, double lift, uwp::Rng& rng) {
  for (;;) {
    std::vector<std::array<double, 3>> p(n);
    for (auto& q : p)
      q = {rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0), rng.uniform(-lift, lift)};
    Matrix d(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        d(i, j) = d(j, i) = std::hypot(p[i][0] - p[j][0], p[i][1] - p[j][1],
                                       p[i][2] - p[j][2]) +
                            rng.normal(0.0, 0.5);
    bool holds = true;
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = a + 1; b < n; ++b)
        for (std::size_t c = b + 1; c < n; ++c)
          holds = holds && d(a, b) <= d(a, c) + d(b, c) && d(a, c) <= d(a, b) + d(b, c) &&
                  d(b, c) <= d(a, b) + d(a, c);
    if (holds) return d;
  }
}

// The bound is a proven lower bound on what a candidate solve can reach: for
// noisy layouts lifted out of the plane, with and without injected long
// (occluded) links, no subset's bound exceeds the normalized stress of the
// warm-started solve the search runs.
TEST(PlanarStressBound, NeverExceedsWarmStartedCandidateStress) {
  uwp::Rng rng(41);
  std::size_t checked = 0, binding = 0, binding_without_triangles = 0;
  for (std::size_t n = 4; n <= 8; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      Matrix d = lifted_distances(n, 4.0, rng);
      const Matrix w = Matrix::ones(n, n);
      const std::vector<Edge> links = links_of(w);
      const bool injected = trial % 2 == 1;
      const int long_links = injected ? 1 + static_cast<int>(rng.uniform(0.0, 4.0)) : 0;
      for (int l = 0; l < long_links; ++l) {
        const auto [a, b] =
            links[static_cast<std::size_t>(rng.uniform(0.0, double(links.size())))];
        d(a, b) = d(b, a) = d(a, b) + rng.uniform(4.0, 12.0);
      }

      SmacofOptions warm;
      warm.random_restarts = 0;
      SmacofWorkspace sws;
      SmacofResult base, cand;
      smacof_2d_into(base, d, w, SmacofOptions{}, rng, nullptr, sws);
      PlanarStressBound bound;
      bound.reset(d, w, links);
      for (std::size_t k = 1; k <= 3; ++k) {
        for (const std::vector<std::size_t>& subset : subsets_of_size(links.size(), k)) {
          Matrix wc = w;
          for (std::size_t li : subset)
            wc(links[li].first, links[li].second) = wc(links[li].second, links[li].first) =
                0.0;
          smacof_2d_into(cand, d, wc, warm, rng, &base.positions, sws);
          const double lb = bound.bound(subset);
          ASSERT_LE(lb, cand.normalized_stress)
              << "n " << n << " trial " << trial << " k " << k;
          ++checked;
          // Would the search skip it (the bound alone fails a 90% drop)?
          if (lb >= 0.1 * base.normalized_stress) {
            ++binding;
            if (!injected) ++binding_without_triangles;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 15000u);
  // The bound is not vacuous, and K4s prune where no triangle is violated.
  EXPECT_GT(binding, checked / 2);
  EXPECT_GT(binding_without_triangles, checked / 4);
}

std::array<double, 6> k4_sides(const Matrix& d) {
  return {d(0, 1), d(0, 2), d(0, 3), d(1, 2), d(1, 3), d(2, 3)};
}

// Every K4's S_q is at most the best of many SMACOF starts on its four
// devices, with unequal weights. Small lifts make the certificate nearly
// tight (its first-order term is exact in the limit), so this also shows
// that S_q is not loose by construction.
TEST(PlanarStressBound, K4BoundNeverExceedsMultiStartMinimum) {
  uwp::Rng rng(43);
  SmacofOptions many;
  many.random_restarts = 30;
  int tight = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const double lift = trial % 2 == 0 ? 0.5 : 6.0;
    const Matrix d = lifted_distances(4, lift, rng);
    Matrix w(4, 4);
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = i + 1; j < 4; ++j) w(i, j) = w(j, i) = rng.uniform(0.5, 2.0);
    const double s_q = k4_planar_stress_bound(
        k4_sides(d), {w(0, 1), w(0, 2), w(0, 3), w(1, 2), w(1, 3), w(2, 3)});
    const SmacofResult best = smacof_2d(d, w, many, rng);
    ASSERT_LE(s_q, best.stress) << "trial " << trial;
    if (s_q > 0.98 * best.stress) ++tight;
  }
  EXPECT_GE(tight, 4);
}

// A planar-realizable K4 gives exactly 0: integer layouts whose sides are
// exact, and random layouts whose sides carry only distance rounding.
TEST(PlanarStressBound, PlanarK4GivesZero) {
  const std::array<double, 6> ones = {1, 1, 1, 1, 1, 1};
  const std::vector<std::vector<Vec2>> exact = {
      {{0, 0}, {3, 0}, {0, 4}, {3, 4}},    // 3-4-5 rectangle
      {{0, 0}, {3, 4}, {6, 0}, {3, -4}},   // kite with sides 5, 6, 8
      {{0, 0}, {1, 0}, {3, 0}, {7, 0}}};   // collinear
  for (const std::vector<Vec2>& pts : exact)
    EXPECT_EQ(k4_planar_stress_bound(k4_sides(distance_matrix(pts)), ones), 0.0);
  uwp::Rng rng(44);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<Vec2> pts(4);
    for (Vec2& p : pts) p = {rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)};
    EXPECT_EQ(k4_planar_stress_bound(k4_sides(distance_matrix(pts)), ones), 0.0)
        << "trial " << trial;
  }
  // The same through the round's bound: a planar 6-device layout.
  const std::vector<Vec2> truth = {{0, 0}, {12, 0}, {5, 11}, {-9, 6}, {-5, -9}, {8, -7}};
  const Matrix w = Matrix::ones(6, 6);
  PlanarStressBound bound;
  bound.reset(distance_matrix(truth), w, links_of(w));
  EXPECT_EQ(bound.bound({}), 0.0);
}

// A single violated triangle is the tight case: the best layout is collinear
// with residuals (v, -v, -v) / 3, so the bound meets the SMACOF optimum.
TEST(PlanarStressBound, TightOnOneViolatedTriangle) {
  Matrix d(3, 3);
  d(0, 1) = d(1, 0) = 10.0;
  d(0, 2) = d(2, 0) = 2.0;
  d(1, 2) = d(2, 1) = 2.0;  // v = 10 - 2 - 2 = 6: raw stress >= 36 / 3
  const Matrix w = Matrix::ones(3, 3);
  PlanarStressBound bound;
  bound.reset(d, w, links_of(w));
  const double lb = bound.bound({});
  EXPECT_NEAR(lb, 2.0, 1e-8);  // sqrt(12 / 3 links)
  uwp::Rng rng(6);
  const SmacofResult res = smacof_2d(d, w, SmacofOptions{}, rng);
  EXPECT_LE(lb, res.normalized_stress);
  EXPECT_NEAR(res.normalized_stress, lb, 1e-6);
  // Dropping any side leaves no triangle, so nothing is bounded.
  const std::size_t drop[] = {1};
  EXPECT_EQ(bound.bound(drop), 0.0);
}

// Hostile sides: a NaN or Inf distance removes its triangles and K4s from
// the bound instead of turning it into NaN (a NaN bound fails the acceptance
// test and would skip every candidate) or Inf.
TEST(PlanarStressBound, NonFiniteSidesContributeNothing) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  // A 20 m link 0-1 violates triangles (0, 1, 2) (v = 12.8) and (0, 1, 3)
  // (v = 5.6) and makes the K4 non-planar; all three share that link, so
  // only the largest is packed.
  const std::vector<Vec2> truth = {{0, 0}, {4, 0}, {2, 3}, {-3, 5}};
  const Matrix w = Matrix::ones(4, 4);
  const std::vector<Edge> links = links_of(w);  // 01 02 03 12 13 23
  for (const double hostile : {kNaN, kInf, -kInf}) {
    Matrix d = distance_matrix(truth);
    d(0, 1) = d(1, 0) = 20.0;
    PlanarStressBound bound;
    bound.reset(d, w, links);
    const double v012 = d(0, 1) - d(0, 2) - d(1, 2);
    EXPECT_GT(k4_planar_stress_bound(k4_sides(d), {1, 1, 1, 1, 1, 1}), 0.0);
    EXPECT_GE(bound.bound({}), std::sqrt(v012 * v012 / 3 * (1 - 1e-9) / 6));
    // Every K4 side in turn: the K4 bound drops to 0, never NaN.
    for (std::size_t e = 0; e < 6; ++e) {
      std::array<double, 6> sides = k4_sides(d);
      sides[e] = hostile;
      EXPECT_EQ(k4_planar_stress_bound(sides, {1, 1, 1, 1, 1, 1}), 0.0) << "side " << e;
    }
    // A hostile side on (0, 1, 3) leaves only triangle (0, 1, 2) counted.
    d(0, 3) = d(3, 0) = hostile;
    bound.reset(d, w, links);
    EXPECT_DOUBLE_EQ(bound.bound({}), std::sqrt(v012 * v012 / 3 * (1 - 1e-9) / 6));
    // With one on (0, 1, 2) too, every triangle and the K4 have a hostile side.
    d(1, 2) = d(2, 1) = hostile;
    bound.reset(d, w, links);
    for (std::size_t k = 0; k <= 3; ++k)
      for (const std::vector<std::size_t>& subset : subsets_of_size(links.size(), k)) {
        const double lb = bound.bound(subset);
        EXPECT_FALSE(std::isnan(lb));
        EXPECT_EQ(lb, 0.0);
      }
  }
  // The full search on a hostile matrix still terminates with a result.
  Matrix d = distance_matrix(truth);
  d(0, 1) = d(1, 0) = kNaN;
  uwp::Rng rng(7);
  const OutlierResult res = localize_with_outlier_detection(d, w, {}, rng);
  EXPECT_EQ(res.positions.size(), 4u);
}

// Seven devices with two occluded links: the base stress is far above the
// threshold, and Algorithm 1 drops one link at each of two levels.
Matrix searched_input() {
  const std::vector<Vec2> truth = {{0, 0},  {12, 0}, {5, 11}, {-9, 6},
                                   {-5, -9}, {8, -7}, {16, 9}};
  Matrix d = distance_matrix(truth);
  d(0, 1) = d(1, 0) = d(0, 1) + 8.0;
  d(2, 3) = d(3, 2) = d(2, 3) + 7.0;
  return d;
}

std::size_t os_thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

// The search pool belongs to the calling thread, not to the workspace: one
// thread searching through many workspaces keeps at most search_threads
// extra OS threads.
TEST(OutlierDetection, SearchThreadsBoundedPerCallingThreadNotPerWorkspace) {
  if (!std::filesystem::exists("/proc/self/task")) GTEST_SKIP() << "no /proc";
  const Matrix d = searched_input();
  const Matrix w = Matrix::ones(7, 7);
  OutlierOptions opts;
  opts.search_threads = 2;
  // ThreadSanitizer starts a helper thread with the first thread a process
  // creates; let that happen before the count is taken.
  std::thread([] {}).join();
  const std::size_t before = os_thread_count();
  std::vector<OutlierWorkspace> workspaces(16);
  for (OutlierWorkspace& ws : workspaces) {
    uwp::Rng rng(8);
    OutlierResult res;
    localize_with_outlier_detection_into(res, d, w, opts, rng, ws);
    ASSERT_GE(ws.base.normalized_stress, opts.stress_threshold);
    ASSERT_GT(res.candidate_solves, 0);
  }
  EXPECT_LE(os_thread_count(), before + 2);
}

// Two threads searching at once each fan out over their own pool, and both
// reproduce the one-thread search bit for bit.
TEST(OutlierDetection, ConcurrentFannedSearchesMatchOneThreadSearch) {
  const Matrix d = searched_input();
  const Matrix w = Matrix::ones(7, 7);
  OutlierOptions opts;
  uwp::Rng rng(9);
  const OutlierResult serial = localize_with_outlier_detection(d, w, opts, rng);
  ASSERT_TRUE(serial.outliers_suspected);
  ASSERT_EQ(serial.dropped_links.size(), 2u);  // a winner re-solved at two levels
  opts.search_threads = 2;
  OutlierResult fanned[2];
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (OutlierResult& res : fanned)
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();  // start together
      uwp::Rng thread_rng(9);
      res = localize_with_outlier_detection(d, w, opts, thread_rng);
    });
  for (std::thread& t : threads) t.join();
  for (const OutlierResult& res : fanned) {
    ASSERT_EQ(res.positions.size(), serial.positions.size());
    for (std::size_t i = 0; i < res.positions.size(); ++i) {
      EXPECT_EQ(res.positions[i].x, serial.positions[i].x);
      EXPECT_EQ(res.positions[i].y, serial.positions[i].y);
    }
    EXPECT_EQ(res.normalized_stress, serial.normalized_stress);
    EXPECT_EQ(res.dropped_links, serial.dropped_links);
    EXPECT_EQ(res.iterations, serial.iterations);
    EXPECT_EQ(res.candidate_solves, serial.candidate_solves);
    EXPECT_EQ(res.candidates_pruned, serial.candidates_pruned);
  }
}

TEST(Ambiguity, TranslateLeaderToOrigin) {
  const std::vector<Vec2> pts = {{3, 4}, {5, 6}, {-1, 0}};
  const auto out = translate_leader_to_origin(pts);
  EXPECT_DOUBLE_EQ(out[0].x, 0.0);
  EXPECT_DOUBLE_EQ(out[0].y, 0.0);
  EXPECT_DOUBLE_EQ(out[1].x, 2.0);
  EXPECT_DOUBLE_EQ(out[2].y, -4.0);
}

TEST(Ambiguity, RotationPutsNodeOneOnBearing) {
  std::vector<Vec2> pts = {{0, 0}, {5, 5}, {10, 0}};
  const double target = uwp::deg_to_rad(90.0);
  const auto out = resolve_rotation(pts, target);
  EXPECT_NEAR(bearing(out[1]), target, 1e-12);
  // Distances preserved.
  EXPECT_NEAR(distance(out[0], out[2]), 10.0, 1e-12);
  EXPECT_NEAR(out[1].norm(), std::sqrt(50.0), 1e-12);
}

TEST(Ambiguity, RotationRequiresLeaderAtOrigin) {
  std::vector<Vec2> pts = {{1, 1}, {5, 5}};
  EXPECT_THROW(resolve_rotation(pts, 0.0), std::invalid_argument);
}

TEST(Ambiguity, FlipConfigurationMirrorsAcrossLeaderLine) {
  const std::vector<Vec2> pts = {{0, 0}, {10, 0}, {5, 3}, {2, -4}};
  const auto flipped = flip_configuration(pts);
  EXPECT_NEAR(flipped[0].x, 0.0, 1e-12);
  EXPECT_NEAR(flipped[1].x, 10.0, 1e-12);  // axis nodes fixed
  EXPECT_NEAR(flipped[2].y, -3.0, 1e-12);
  EXPECT_NEAR(flipped[3].y, 4.0, 1e-12);
}

TEST(Ambiguity, VoteScoreCountsConsistentSides) {
  // Node 2 left (+1 vote with mic_sign +1), node 3 right.
  const std::vector<Vec2> pts = {{0, 0}, {10, 0}, {5, 3}, {2, -4}};
  const std::vector<MicVote> votes = {{2, 1}, {3, -1}};
  EXPECT_DOUBLE_EQ(flip_vote_score(pts, votes), 2.0);
  // Mirrored configuration scores -2.
  EXPECT_DOUBLE_EQ(flip_vote_score(flip_configuration(pts), votes), -2.0);
}

TEST(Ambiguity, ResolveFlipPicksHigherScore) {
  const std::vector<Vec2> truth = {{0, 0}, {10, 0}, {5, 3}, {2, -4}};
  const std::vector<MicVote> votes = {{2, 1}, {3, -1}};
  // Feed the mirrored configuration; the votes must flip it back.
  const FlipDecision d = resolve_flip(flip_configuration(truth), votes);
  EXPECT_TRUE(d.flipped);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(d.positions[i].x, truth[i].x, 1e-9);
    EXPECT_NEAR(d.positions[i].y, truth[i].y, 1e-9);
  }
}

TEST(Ambiguity, MajorityVoteOverridesMinorityError) {
  const std::vector<Vec2> pts = {{0, 0}, {10, 0}, {5, 3}, {2, -4}, {7, 6}};
  // Node 3's vote is wrong (says left, actually right); majority correct.
  const std::vector<MicVote> votes = {{2, 1}, {3, 1}, {4, 1}};
  const FlipDecision d = resolve_flip(pts, votes);
  EXPECT_FALSE(d.flipped);
}

TEST(Ambiguity, TieKeepsOriginal) {
  const std::vector<Vec2> pts = {{0, 0}, {10, 0}, {5, 3}, {2, -4}};
  const std::vector<MicVote> votes = {{2, 1}, {3, 1}};  // one right, one wrong
  const FlipDecision d = resolve_flip(pts, votes);
  EXPECT_FALSE(d.flipped);
  EXPECT_DOUBLE_EQ(d.score_original, d.score_flipped);
}

TEST(Ambiguity, VotesOnAxisNodesIgnored) {
  const std::vector<Vec2> pts = {{0, 0}, {10, 0}, {5, 3}};
  const std::vector<MicVote> votes = {{0, 1}, {1, -1}};  // invalid voters
  EXPECT_DOUBLE_EQ(flip_vote_score(pts, votes), 0.0);
}

}  // namespace
}  // namespace uwp::core
