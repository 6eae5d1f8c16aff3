// Iterative outlier-link detection (paper Algorithm 1, §2.1.3). Occluded
// links whose multipath was mistaken for the direct path inflate the SMACOF
// stress; the detector drops growing subsets of links, re-running SMACOF on
// each candidate subset, and accepts a drop when the normalized stress
// collapses (>= 90% reduction). Candidate solves are warm-started from the
// current best layout (cheaper than the realizability check, which is
// deferred to candidates that actually improve); subsets that would leave
// the graph not uniquely realizable are never accepted, and at most
// `max_outliers` links are dropped.
//
// Hopeless candidates are skipped without a solve. Every 2D layout obeys the
// triangle inequality, so a triangle of present links whose measured sides
// violate it by v > 0 (longest side minus the other two) forces residuals
// r_a - r_b - r_c >= v on its links, and by Cauchy-Schwarz a raw stress of
// at least v^2 / (1/w_a + 1/w_b + 1/w_c). Triangles that share no link add
// up, so greedily packing link-disjoint violated triangles that avoid a
// candidate's dropped links gives a lower bound LB_S on the raw stress of
// *any* layout of that candidate, and lb = sqrt(LB_S (1 - 1e-9) / #links) on
// its normalized stress (the 1e-9 absorbs rounding in the computed stress).
// SMACOF reports the stress of a real layout, so its result is >= lb; a
// candidate with !(E0 - lb > drop_ratio * E0) can never pass the acceptance
// test and is not solved. Positions, stress, dropped links and every digest
// are bit-identical to the exhaustive search; only the solve count drops.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/rigidity.hpp"
#include "core/smacof.hpp"

namespace uwp::core {

struct OutlierOptions {
  // Normalized-stress acceptance threshold, in meters of RMS link residual
  // sqrt(S / #links). The paper normalizes S by the link count and uses 1.5;
  // with our sqrt scale, clean rounds (0.5-0.9 m ranging noise) sit near
  // 0.1-0.3 m while a single occluded link pushes past 0.7 m, so 0.5 m
  // separates the regimes (measured in tests; documented in DESIGN.md).
  double stress_threshold = 0.5;
  // Required relative stress reduction to accept a dropped subset (0.9 in
  // the paper: "E0 - E' > 0.9 * E0").
  double drop_ratio = 0.9;
  int max_outliers = 3;  // O_max
  // Candidate-pool cap for large graphs. Algorithm 1 enumerates C(L, k)
  // subsets — fine for the paper's 5-7 devices (C(10, 3) = 120) but
  // combinatorial at swarm scale (C(190, 3) > 1M SMACOF solves at N = 20).
  // When the link count exceeds this, only the links with the largest
  // absolute residuals in the initial all-links fit stay eligible for
  // dropping; an occluded link is exactly a high-residual one, so the
  // pruning costs little accuracy and bounds the subset count. 28 =
  // C(8, 2): every fully-connected group up to the paper's largest (N = 8)
  // keeps the exhaustive subset enumeration.
  std::size_t max_suspect_links = 28;
  // Worker threads for the candidate-subset search; 0 = all hardware
  // threads. Candidate solves are warm-started and draw no randomness, and
  // their stresses are reduced in enumeration order, so the result is
  // bit-identical at any count. Above 1 the solves fan out over a pool that
  // belongs to the calling thread, not to the workspace: however many
  // workspaces a thread uses, it keeps at most search_threads extra threads.
  std::size_t search_threads = 1;
  SmacofOptions smacof{};
};

struct OutlierResult {
  std::vector<Vec2> positions;
  double normalized_stress = 0.0;
  std::vector<Edge> dropped_links;
  bool outliers_suspected = false;  // initial stress exceeded the threshold
  // Final weight matrix actually used (input weights minus dropped links).
  Matrix weights;
  // Total SMACOF iterations spent on this round (base solve + every
  // candidate solve). A pure function of the inputs — the search sums
  // per-candidate counts in enumeration order — so it is part of the
  // deterministic telemetry plane, not a timing. Equal at any
  // search_threads. A level's winner is solved again to recover its layout;
  // that repeats a counted solve and is not counted again.
  std::int64_t iterations = 0;
  // Candidate subsets solved with SMACOF, and candidates skipped because the
  // triangle stress bound proves they cannot be accepted. Both are pure
  // functions of the inputs, equal at any search_threads.
  std::int64_t candidate_solves = 0;
  std::int64_t candidates_pruned = 0;
};

// The triangle-inequality stress bound (see the top of this file) for one
// round's link set. reset() lists the violated triangles once; bound() then
// answers per candidate subset in O(#triangles).
class TriangleStressBound {
 public:
  // `links` is the i < j, weights(i, j) > 0 link set of `weights`. A triangle
  // counts only when all three links are present and its sides, weights and
  // contribution are finite, so a NaN or Inf side contributes nothing.
  void reset(const Matrix& dist, const Matrix& weights, const std::vector<Edge>& links);
  // Lower bound on SMACOF's normalized stress with links[dropped[i]] removed
  // (`dropped` holds distinct indices into `links`). Never NaN; 0 when no
  // violated triangle survives the drop.
  double bound(std::span<const std::size_t> dropped);

 private:
  struct Triangle {
    double contribution;  // v^2 / (1/w_a + 1/w_b + 1/w_c)
    std::size_t link[3];
  };
  std::vector<Triangle> triangles_;  // by contribution, descending
  std::vector<std::size_t> link_id_;  // n x n -> index into links
  std::vector<unsigned char> used_;
  std::size_t num_links_ = 0;
};

// Algorithm 1: localize with outlier detection. `dist` is the projected 2D
// distance matrix, `weights` the initial link indicator matrix. When `init`
// is given (a predicted layout from a tracker, say) the base solve warm
// starts from it with no random restarts — no rng draws — instead of the
// cold classical-MDS + restarts seed.
OutlierResult localize_with_outlier_detection(const Matrix& dist, const Matrix& weights,
                                              const OutlierOptions& opts, uwp::Rng& rng,
                                              const std::vector<Vec2>* init = nullptr);

// Reusable scratch for the workspace variant. The base solve's SMACOF
// workspace keeps its V^+ cache warm across rounds (clean rounds repeat the
// same weight pattern); candidate solves run in the calling thread's search
// lanes, so they never evict it.
struct OutlierWorkspace {
  SmacofWorkspace smacof_base;
  SmacofResult base;
  std::vector<Edge> links, remaining;
  std::vector<std::size_t> pool, subset_slots, subset, best_subset, dropped_so_far;
  std::vector<double> residual;
  std::vector<Vec2> p0, p_min;
  TriangleStressBound bound;

  // One search level: the candidate subsets the bound does not rule out
  // (flattened, in enumeration order) and their solved stresses and
  // iteration counts, reduced in that order.
  std::vector<std::size_t> flat_subsets;
  std::vector<double> cand_stress;
  std::vector<std::int64_t> cand_iters;
};

// Workspace variant: bit-identical to the allocating form, no steady-state
// heap traffic on clean (below-threshold) rounds.
void localize_with_outlier_detection_into(OutlierResult& out, const Matrix& dist,
                                          const Matrix& weights,
                                          const OutlierOptions& opts, uwp::Rng& rng,
                                          OutlierWorkspace& ws,
                                          const std::vector<Vec2>* init = nullptr);

// Enumeration helper: all size-k subsets of [0, n) (exposed for tests).
std::vector<std::vector<std::size_t>> subsets_of_size(std::size_t n, std::size_t k);

}  // namespace uwp::core
