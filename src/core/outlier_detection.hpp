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
// Hopeless candidates are skipped without a solve, using lower bounds on the
// raw stress S(X) = sum_e w_e r_e^2, r_e = ||x_i - x_j|| - d_e, that *any*
// 2D layout X puts on a small clique of present links:
//
// * Triangles. Every 2D layout obeys the triangle inequality, so a triangle
//   whose measured sides violate it by v > 0 (longest side minus the other
//   two) forces residuals r_a - r_b - r_c >= v on its links, and by
//   Cauchy-Schwarz a raw stress of at least v^2 / (1/w_a + 1/w_b + 1/w_c).
//
// * Planar K4s (four devices with all six links). Let D_e = d_e^2 and let
//   f(D) be the Cayley-Menger determinant of the quadruple: a cubic in the
//   six squared sides with 22 monomials of coefficient +-2 (288 times the
//   squared volume of the tetrahedron with those sides). Four points in a
//   plane span no volume, so every 2D layout has f(D + delta) = 0 with
//   delta_e = x_e^2 - D_e = r_e (2 d_e + r_e). A cubic's Taylor series ends
//   at the third term, so with g = grad f(D), H = hess f(D) and the
//   constant third derivative T (every entry |T_ijk| <= 4, twice the
//   coefficient of a squared monomial; a static_assert checks it),
//     |f(D)| = |g.delta + delta'H delta / 2 + T[delta, delta, delta] / 6|.
//   Suppose a layout had sum_e w_e r_e^2 <= S. Then |r_e| <= sqrt(S / w_e),
//   so |delta_e| <= |r_e| a_e with a_e = 2|d_e| + sqrt(S / w_e), and by
//   Cauchy-Schwarz
//     |g.delta|      <= sqrt(sum g_e^2 a_e^2 / w_e) sqrt(S),
//     |delta'H delta| <= ||H||_F sum delta_e^2 <= ||H||_F max(a_e^2 / w_e) S,
//     |T[delta^3]|   <= 4 (sum |delta_e|)^3 <= 4 (sum a_e^2 / w_e)^(3/2) S^(3/2).
//   The right-hand side R(S) of |f(D)| <= R(S) grows with S, so every S
//   with R(S) < |f(D)| is a strict lower bound on the K4's raw stress. S_q
//   is the largest such S that a bounded regula falsi on t = sqrt(S) finds
//   (R is convex in t; the search keeps only values that pass the test). A
//   lifted, non-planar quadruple whose every triangle holds still has
//   f(D) != 0, so K4s bound candidates no triangle can.
//
//   Rounding. H = T.D, g = H.D / 2 and f = g.D / 3 (Euler's identities for
//   a homogeneous cubic) are evaluated from D = d*d, each alongside the same
//   sum over magnitudes (F_abs for f; D >= 0). Every computed value passes
//   through at most 22 roundings (D; a product and 5 additions per dot
//   product; the final division), so it is within gamma_22 times its
//   magnitude sum of the exact value. The test uses |f| - 64u F_abs
//   (u = 2^-53, 64u > gamma_22 (1 + gamma_22) with room for the
//   subtraction's own rounding) and g, H entries inflated by 64u times
//   their magnitude sums; R(S) is then a chain of about 40 roundings of
//   non-negative terms (plus S = t * t, which moves R by at most 7u
//   relative), covered by comparing R(S) (1 + 2^-40).
//   A side, weight or intermediate that is not finite drops the K4.
//
// Cliques that share no link add up, so greedily packing link-disjoint
// triangles and K4s (largest bound first) that avoid a candidate's dropped
// links gives a lower bound LB_S on the raw stress of any layout of that
// candidate, and lb = sqrt(LB_S (1 - 1e-9) / #links) on its normalized
// stress (the 1e-9 absorbs rounding in the computed stress). SMACOF reports
// the stress of a real layout, so its result is >= lb; a candidate with
// !(E0 - lb > drop_ratio * E0) can never pass the acceptance test and is not
// solved. Positions, stress, dropped links and every digest are
// bit-identical to the exhaustive search; only the solve count drops.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
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
  // planar stress bound proves they cannot be accepted. Both are pure
  // functions of the inputs, equal at any search_threads.
  std::int64_t candidate_solves = 0;
  std::int64_t candidates_pruned = 0;
};

// The planar stress bound (see the top of this file) for one round's link
// set. reset() lists the bounding triangles and K4s once; bound() then
// answers per candidate subset in O(#cliques).
class PlanarStressBound {
 public:
  // `links` is the i < j, weights(i, j) > 0 link set of `weights`. A clique
  // counts only when all its links are present and its sides, weights and
  // bound are finite, so a NaN or Inf side contributes nothing.
  void reset(const Matrix& dist, const Matrix& weights, const std::vector<Edge>& links);
  // Lower bound on SMACOF's normalized stress with links[dropped[i]] removed
  // (`dropped` holds distinct indices into `links`). Never NaN; 0 when no
  // bounding clique survives the drop. The packing stops as soon as the
  // bound reaches `stop_at`, so a result >= stop_at may be below the full
  // packing's.
  double bound(std::span<const std::size_t> dropped,
               double stop_at = std::numeric_limits<double>::infinity());

 private:
  struct Clique {
    double contribution;  // lower bound on the raw stress on its links
    std::size_t size;     // 3 (triangle) or 6 (K4) links
    std::size_t link[6];
  };
  std::vector<Clique> cliques_;  // by contribution, descending
  std::vector<std::size_t> link_id_;  // n x n -> index into links
  std::vector<unsigned char> used_;
  std::size_t num_links_ = 0;
};

// S_q of one K4 (see the top of this file): a lower bound on the raw stress
// sum_e w[e] (x_e - d[e])^2 that any 2D layout puts on its six links, sides
// in the order 01 02 03 12 13 23 of its devices. 0 when the sides are
// planar-realizable to rounding, when a side, weight or intermediate is not
// finite, or when the root search's bracket shows S_q cannot exceed
// `floor`; never NaN.
double k4_planar_stress_bound(const std::array<double, 6>& d,
                              const std::array<double, 6>& w, double floor = 0.0);

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
  PlanarStressBound bound;

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
