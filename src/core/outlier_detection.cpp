#include "core/outlier_detection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "util/thread_pool.hpp"

namespace uwp::core {

namespace {

// In-place lexicographic advance of a k-subset of [0, n) (k >= 1). Visits
// subsets in exactly the order subsets_of_size materializes them.
bool advance_subset(std::vector<std::size_t>& idx, std::size_t n) {
  const std::size_t k = idx.size();
  std::size_t i = k;
  while (i-- > 0) {
    if (idx[i] != i + n - k) {
      ++idx[i];
      for (std::size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
      return true;
    }
    if (i == 0) return false;
  }
  return false;
}

// Scratch for one candidate solve.
struct SearchLane {
  SmacofWorkspace smacof;
  SmacofResult result;
  Matrix w;
  Rng rng{0};  // never drawn from (warm solves have no restarts)
};

struct SearchPool {
  std::unique_ptr<ThreadPool> pool;  // none until a search asks for > 1 thread
  std::vector<SearchLane> lanes;     // one per lane; lane 0 is the caller
};

// The calling thread's fan-out for a search at `threads` (resolved, >= 1):
// the caller runs lane 0 and a pool of threads - 1 runs the rest. The pool
// is recreated only when a search asks for a different count above one, so
// search threads stay bounded by localizing threads x search_threads.
SearchPool& search_pool(std::size_t threads) {
  thread_local SearchPool sp;
  if (threads > 1 && (sp.pool == nullptr || sp.pool->size() != threads - 1))
    sp.pool = std::make_unique<ThreadPool>(threads - 1);
  if (sp.lanes.size() < threads) sp.lanes.resize(threads);
  return sp;
}

}  // namespace

namespace {

// The Cayley-Menger determinant of four points as a cubic in the squared
// sides D (order 01 02 03 12 13 23): the sum of c * D[v0] D[v1] D[v2].
struct Monomial {
  double c;
  std::size_t v[3];
};
constexpr Monomial kCayleyMenger[22] = {
    {-2, {0, 0, 5}}, {-2, {0, 1, 3}}, {2, {0, 1, 4}},  {2, {0, 1, 5}},  {2, {0, 2, 3}},
    {-2, {0, 2, 4}}, {2, {0, 2, 5}},  {2, {0, 3, 5}},  {2, {0, 4, 5}},  {-2, {0, 5, 5}},
    {-2, {1, 1, 4}}, {2, {1, 2, 3}},  {2, {1, 2, 4}},  {-2, {1, 2, 5}}, {2, {1, 3, 4}},
    {-2, {1, 4, 4}}, {2, {1, 4, 5}},  {-2, {2, 2, 3}}, {-2, {2, 3, 3}}, {2, {2, 3, 4}},
    {2, {2, 3, 5}},  {-2, {3, 4, 5}}};

// Its constant third derivative T[l][m][n], flattened, so that H = T . D,
// g = H . D / 2 and f = g . D / 3 (Euler's identities for a homogeneous
// cubic).
constexpr std::array<double, 216> third_derivative() {
  constexpr std::size_t kPerm[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                       {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  std::array<double, 216> t{};
  for (const Monomial& m : kCayleyMenger)
    for (const auto& p : kPerm) t[(m.v[p[0]] * 6 + m.v[p[1]]) * 6 + m.v[p[2]]] += m.c;
  return t;
}
constexpr std::array<double, 216> kThird = third_derivative();
constexpr bool third_derivative_within_4() {
  for (double x : kThird)
    if (x > 4.0 || x < -4.0) return false;
  return true;
}
static_assert(third_derivative_within_4(), "the K4 certificate assumes |T_lmn| <= 4");


// Root-finding budget for S_q: at most this many certificate tests, fewer
// once the bracket on sqrt(S_q) is within kRootRelTol of its upper end.
constexpr int kRootSteps = 12;
constexpr double kRootRelTol = 1e-3;

}  // namespace

double k4_planar_stress_bound(const std::array<double, 6>& d,
                              const std::array<double, 6>& w, double floor) {
  constexpr double kU = std::numeric_limits<double>::epsilon() / 2;
  std::array<double, 6> dd{};
  for (std::size_t e = 0; e < 6; ++e) dd[e] = d[e] * d[e];
  // hess f, grad f and f at D, each with the same sum over magnitudes.
  std::array<double, 36> h{}, h_abs{};
  for (std::size_t lm = 0; lm < 36; ++lm) {
    double s = 0.0, s_abs = 0.0;
    for (std::size_t n = 0; n < 6; ++n) {
      s += kThird[lm * 6 + n] * dd[n];
      s_abs += std::abs(kThird[lm * 6 + n]) * dd[n];
    }
    h[lm] = s;
    h_abs[lm] = s_abs;
  }
  std::array<double, 6> g{}, g_abs{};
  double f = 0.0, f_abs = 0.0;
  for (std::size_t l = 0; l < 6; ++l) {
    double s = 0.0, s_abs = 0.0;
    for (std::size_t m = 0; m < 6; ++m) {
      s += h[l * 6 + m] * dd[m];
      s_abs += h_abs[l * 6 + m] * dd[m];
    }
    g[l] = 0.5 * s;
    g_abs[l] = 0.5 * s_abs;
    f += g[l] * dd[l];
    f_abs += g_abs[l] * dd[l];
  }
  f /= 3.0;
  f_abs /= 3.0;
  // A planar quadruple ends here: |f| is within its rounding bound of 0. NaN
  // fails the comparison, so a non-finite side ends here too.
  const double target = std::abs(f) - 64 * kU * f_abs;
  if (!(target > 0.0) || !std::isfinite(target)) return 0.0;

  // Upper bounds on |g_e| / sqrt(w_e) and ||H||_F.
  std::array<double, 6> gw{}, iw{}, siw{};
  double h_frob = 0.0;
  for (std::size_t e = 0; e < 6; ++e) {
    iw[e] = 1.0 / w[e];
    siw[e] = std::sqrt(iw[e]);
    gw[e] = (std::abs(g[e]) + 64 * kU * g_abs[e]) * siw[e];
  }
  for (std::size_t i = 0; i < 36; ++i) {
    const double hi = std::abs(h[i]) + 64 * kU * h_abs[i];
    h_frob += hi * hi;
  }
  h_frob = std::sqrt(h_frob);
  // R(t^2) (1 + 2^-40) - (|f(D)| - rounding): negative exactly when the
  // certificate holds for S = t^2. R is convex and increasing in t.
  const auto excess = [&](double t) {
    double sum_g = 0.0, sum_a = 0.0, max_a = 0.0;
    for (std::size_t e = 0; e < 6; ++e) {
      const double a = 2.0 * std::abs(d[e]) + t * siw[e];
      sum_g += gw[e] * gw[e] * a * a;
      const double aw = a * a * iw[e];
      sum_a += aw;
      max_a = std::max(max_a, aw);
    }
    const double r = std::sqrt(sum_g) * t + 0.5 * h_frob * max_a * t * t +
                     (2.0 / 3.0) * sum_a * std::sqrt(sum_a) * t * t * t;
    return r * (1.0 + 0x1p-40) - target;
  };
  // Bracket on t = sqrt(S_q): the cubic term alone, with a_e^2 >= t^2 / w_e,
  // reaches |f| by t = (1.5 |f| / (sum 1 / w_e^2)^(3/2))^(1/6); the
  // first-order term alone, with a_e >= 2 |d_e|, by
  // |f| / sqrt(sum g_e^2 4 d_e^2 / w_e).
  double w2 = 0.0, g0 = 0.0;
  for (std::size_t e = 0; e < 6; ++e) {
    w2 += iw[e] * iw[e];
    g0 += gw[e] * gw[e] * 4.0 * dd[e];
  }
  double hi = std::sqrt(std::cbrt(1.5 * target / (w2 * std::sqrt(w2))));
  if (g0 > 0.0) hi = std::min(hi, target / std::sqrt(g0));
  if (!(hi > 0.0) || !std::isfinite(hi) || !std::isfinite(h_frob) || !(hi * hi > floor))
    return 0.0;
  // Regula falsi (Illinois variant) on the excess. `lo` only ever takes
  // values whose certificate test passed, so S_q = lo^2 is proven whatever
  // the iteration does; convexity only makes it converge.
  double lo = 0.0, e_lo = -target, e_hi = excess(hi);
  if (e_hi < 0.0) return hi * hi;
  int kept = 0;  // which end the last step kept: -1 lo moved, +1 hi moved
  for (int step = 0; step < kRootSteps && hi - lo > kRootRelTol * hi; ++step) {
    double t = (lo * e_hi - hi * e_lo) / (e_hi - e_lo);
    if (!(t > lo && t < hi)) t = 0.5 * (lo + hi);
    const double e = excess(t);
    if (e < 0.0) {
      lo = t;
      e_lo = e;
      if (kept == -1) e_hi *= 0.5;
      kept = -1;
    } else {
      hi = t;
      e_hi = e;
      if (kept == +1) e_lo *= 0.5;
      kept = +1;
    }
  }
  return lo * lo;
}

void PlanarStressBound::reset(const Matrix& dist, const Matrix& weights,
                              const std::vector<Edge>& links) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t n = dist.rows();
  num_links_ = links.size();
  link_id_.assign(n * n, kNone);
  for (std::size_t li = 0; li < links.size(); ++li)
    link_id_[links[li].first * n + links[li].second] = li;
  const auto id = [&](std::size_t i, std::size_t j) { return link_id_[i * n + j]; };
  // The triangle bound of devices a < b < c, 0 when no violation counts.
  const auto triangle = [&](std::size_t a, std::size_t b, std::size_t c) {
    const double dab = dist(a, b), dac = dist(a, c), dbc = dist(b, c);
    const double v = std::max({dab - dac - dbc, dac - dab - dbc, dbc - dab - dac});
    const double contribution =
        v * v / (1.0 / weights(a, b) + 1.0 / weights(a, c) + 1.0 / weights(b, c));
    // NaN compares false and an Inf side gives an Inf or NaN contribution:
    // either way the triangle contributes nothing.
    return v > 0.0 && std::isfinite(contribution) && contribution > 0.0 ? contribution
                                                                        : 0.0;
  };
  cliques_.clear();
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b) {
      const std::size_t ab = id(a, b);
      if (ab == kNone) continue;
      for (std::size_t c = b + 1; c < n; ++c) {
        const std::size_t ac = id(a, c);
        const std::size_t bc = id(b, c);
        if (ac == kNone || bc == kNone) continue;
        const double abc = triangle(a, b, c);
        if (abc > 0.0) cliques_.push_back({abc, 3, {ab, ac, bc}});
        for (std::size_t q = c + 1; q < n; ++q) {
          const std::size_t aq = id(a, q), bq = id(b, q), cq = id(c, q);
          if (aq == kNone || bq == kNone || cq == kNone) continue;
          // A K4 whose bound does not beat one of its own triangles is never
          // packed: the triangle comes first and blocks it, and whatever
          // blocks the triangle blocks the K4. Not listing it saves its
          // root search and keeps bound() short.
          const double own = std::max(
              {abc, triangle(a, b, q), triangle(a, c, q), triangle(b, c, q)});
          const double s_q = k4_planar_stress_bound(
              {dist(a, b), dist(a, c), dist(a, q), dist(b, c), dist(b, q), dist(c, q)},
              {weights(a, b), weights(a, c), weights(a, q), weights(b, c),
               weights(b, q), weights(c, q)},
              own);
          if (s_q > own) cliques_.push_back({s_q, 6, {ab, ac, aq, bc, bq, cq}});
        }
      }
    }
  // Largest first, ties in enumeration order (size and link ids break them
  // uniquely).
  std::sort(cliques_.begin(), cliques_.end(), [](const Clique& x, const Clique& y) {
    if (x.contribution != y.contribution) return x.contribution > y.contribution;
    if (x.size != y.size) return x.size < y.size;
    return std::lexicographical_compare(x.link, x.link + x.size, y.link, y.link + y.size);
  });
}

double PlanarStressBound::bound(std::span<const std::size_t> dropped, double stop_at) {
  if (cliques_.empty() || dropped.size() >= num_links_) return 0.0;
  used_.assign(num_links_, 0);
  for (std::size_t li : dropped) used_[li] = 1;
  // Finite positive terms: the sum is finite or +Inf, never NaN.
  const double remaining = static_cast<double>(num_links_ - dropped.size());
  double raw = 0.0;
  for (const Clique& q : cliques_) {
    const std::size_t* end = q.link + q.size;
    if (std::any_of(q.link, end, [&](std::size_t li) { return used_[li] != 0; }))
      continue;
    for (const std::size_t* li = q.link; li != end; ++li) used_[*li] = 1;
    raw += q.contribution;
    if (std::sqrt(raw * (1.0 - 1e-9) / remaining) >= stop_at) break;
  }
  return std::sqrt(raw * (1.0 - 1e-9) / remaining);
}

std::vector<std::vector<std::size_t>> subsets_of_size(std::size_t n, std::size_t k) {
  std::vector<std::vector<std::size_t>> out;
  if (k > n) return out;
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  // Built on the same advance the search loops use in place, so the
  // enumeration order cannot drift apart.
  do {
    out.push_back(idx);
  } while (advance_subset(idx, n));
  return out;
}

OutlierResult localize_with_outlier_detection(const Matrix& dist, const Matrix& weights,
                                              const OutlierOptions& opts, uwp::Rng& rng,
                                              const std::vector<Vec2>* init) {
  OutlierWorkspace ws;
  OutlierResult out;
  localize_with_outlier_detection_into(out, dist, weights, opts, rng, ws, init);
  return out;
}

void localize_with_outlier_detection_into(OutlierResult& out, const Matrix& dist,
                                          const Matrix& weights,
                                          const OutlierOptions& opts, uwp::Rng& rng,
                                          OutlierWorkspace& ws,
                                          const std::vector<Vec2>* init) {
  const std::size_t n = dist.rows();
  std::vector<Edge>& links = ws.links;
  links.clear();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (weights(i, j) > 0.0) links.emplace_back(i, j);

  out.weights = weights;
  out.dropped_links.clear();
  out.outliers_suspected = false;

  SmacofOptions warm = opts.smacof;
  warm.random_restarts = 0;

  // Initial solve on all links. A caller-provided init (tracker-predicted
  // geometry) replaces the cold classical-MDS seed and skips the random
  // restarts — and with them every rng draw of the solve.
  SmacofResult& base = ws.base;
  if (init != nullptr)
    smacof_2d_into(base, dist, weights, warm, rng, init, ws.smacof_base);
  else
    smacof_2d_into(base, dist, weights, opts.smacof, rng, nullptr, ws.smacof_base);
  out.positions.assign(base.positions.begin(), base.positions.end());
  out.normalized_stress = base.normalized_stress;
  out.iterations = base.iterations;
  out.candidate_solves = 0;
  out.candidates_pruned = 0;
  if (base.normalized_stress < opts.stress_threshold) return;

  out.outliers_suspected = true;
  double e0 = base.normalized_stress;
  ws.bound.reset(dist, weights, links);
  // A candidate whose stress bound already fails the acceptance test cannot
  // be accepted, whatever its solve would return (see the header). The test
  // does not depend on the other candidates, so the same ones are skipped at
  // any search_threads.
  const auto hopeless = [&](const std::vector<std::size_t>& subset) {
    // Any lb at or above (1 - drop_ratio) E0, with 1e-9 to spare for the
    // rounding of the test below, fails it; the packing may stop there.
    const double lb = ws.bound.bound(subset, (1.0 - opts.drop_ratio) * e0 * (1.0 + 1e-9));
    return !(e0 - lb > opts.drop_ratio * e0);
  };
  std::vector<Vec2>& p0 = ws.p0;
  p0.assign(base.positions.begin(), base.positions.end());
  std::vector<std::size_t>& dropped_so_far = ws.dropped_so_far;  // links[] indices
  dropped_so_far.clear();

  // Candidate pool: all links while the subset enumeration stays cheap;
  // past max_suspect_links, only the worst-fitting links of the initial
  // solve are eligible (see OutlierOptions::max_suspect_links). Every
  // candidate solve is a warm start from the current best layout (no random
  // restarts, no rng draws) with the realizability check deferred until a
  // candidate actually improves — a warm solve is cheaper than the check.
  const bool pruned = links.size() > opts.max_suspect_links;
  std::vector<std::size_t>& pool = ws.pool;
  pool.resize(links.size());
  for (std::size_t li = 0; li < links.size(); ++li) pool[li] = li;
  if (pruned) {
    std::vector<double>& residual = ws.residual;
    residual.resize(links.size());
    for (std::size_t li = 0; li < links.size(); ++li) {
      const auto [a, b] = links[li];
      residual[li] = std::abs(distance(base.positions[a], base.positions[b]) -
                              dist(a, b));
    }
    std::sort(pool.begin(), pool.end(), [&](std::size_t x, std::size_t y) {
      if (residual[x] != residual[y]) return residual[x] > residual[y];
      return x < y;  // deterministic tie-break
    });
    pool.resize(opts.max_suspect_links);
    std::sort(pool.begin(), pool.end());  // keep enumeration order stable
  }
  // Warm candidate solves draw nothing from `rng`, so they can fan out over
  // the calling thread's pool; the reduction below walks candidates in
  // enumeration order, making the result bit-identical at any thread count.
  const std::size_t threads = ThreadPool::resolve_thread_count(opts.search_threads);
  SearchPool& sp = search_pool(threads);
  std::vector<std::size_t>& flat = ws.flat_subsets;
  std::vector<std::size_t>& subset = ws.subset;
  std::vector<Edge>& remaining = ws.remaining;
  std::vector<Vec2>& p_min = ws.p_min;

  for (int ndrop = 1; ndrop <= opts.max_outliers; ++ndrop) {
    double e_min = e0;
    p_min.assign(p0.begin(), p0.end());
    std::vector<std::size_t>& best_subset = ws.best_subset;
    best_subset.clear();

    const std::size_t k = static_cast<std::size_t>(ndrop);
    if (k > pool.size()) continue;
    std::vector<std::size_t>& slots = ws.subset_slots;
    slots.resize(k);
    for (std::size_t i = 0; i < k; ++i) slots[i] = i;

    // 1. This level's candidate subsets that the bound does not rule out
    // (link indices, flattened k at a time, in enumeration order).
    flat.clear();
    bool more = true;
    while (more) {
      subset.resize(k);
      for (std::size_t i = 0; i < k; ++i) subset[i] = pool[slots[i]];
      more = advance_subset(slots, pool.size());
      if (hopeless(subset)) {
        ++out.candidates_pruned;
        continue;
      }
      flat.insert(flat.end(), subset.begin(), subset.end());
    }
    const std::size_t m = flat.size() / k;

    // 2. Solve each one with its subset removed, warm from the best layout.
    ws.cand_stress.resize(m);
    ws.cand_iters.resize(m);
    const auto solve = [&](SearchLane& lane, std::size_t ci) {
      lane.w = weights;
      for (std::size_t t = 0; t < k; ++t) {
        const Edge& e = links[flat[ci * k + t]];
        lane.w(e.first, e.second) = 0.0;
        lane.w(e.second, e.first) = 0.0;
      }
      smacof_2d_into(lane.result, dist, lane.w, warm, lane.rng, &p0, lane.smacof);
      ws.cand_stress[ci] = lane.result.normalized_stress;
      ws.cand_iters[ci] = lane.result.iterations;
    };
    if (threads == 1) {
      for (std::size_t ci = 0; ci < m; ++ci) solve(sp.lanes[0], ci);
    } else {
      sp.pool->parallel_for_lanes(
          m, [&](std::size_t lane, std::size_t ci) { solve(sp.lanes[lane], ci); });
    }
    // Integer sum in enumeration order: thread-count invariant.
    for (std::size_t ci = 0; ci < m; ++ci) out.iterations += ws.cand_iters[ci];
    out.candidate_solves += static_cast<std::int64_t>(m);

    // 3. Reduce in enumeration order: the lowest significant stress wins, if
    // the remaining graph is still uniquely realizable — otherwise the
    // "improvement" is just the looser problem. Checking is pricier than a
    // warm-started solve, so it waits for candidates that actually improve.
    std::size_t best_ci = m;
    for (std::size_t ci = 0; ci < m; ++ci) {
      const double ns = ws.cand_stress[ci];
      const bool significant = e0 - ns > opts.drop_ratio * e0;
      if (!significant || ns >= e_min) continue;
      const std::size_t* cand = &flat[ci * k];
      remaining.clear();
      for (std::size_t li = 0; li < links.size(); ++li)
        if (std::find(cand, cand + k, li) == cand + k) remaining.push_back(links[li]);
      if (!is_uniquely_realizable_2d(n, remaining)) continue;
      e_min = ns;
      best_ci = ci;
    }
    if (best_ci != m) {
      best_subset.assign(&flat[best_ci * k], &flat[best_ci * k] + k);
      // Re-solve the winner to recover its layout; the warm solve is
      // deterministic, so this reproduces its result exactly (and its
      // iterations are already counted).
      solve(sp.lanes[0], best_ci);
      p_min.assign(sp.lanes[0].result.positions.begin(),
                   sp.lanes[0].result.positions.end());
    }

    if (e_min < opts.stress_threshold) {
      out.positions.assign(p_min.begin(), p_min.end());
      out.normalized_stress = e_min;
      for (std::size_t li : best_subset) {
        out.dropped_links.push_back(links[li]);
        out.weights(links[li].first, links[li].second) = 0.0;
        out.weights(links[li].second, links[li].first) = 0.0;
      }
      return;
    }
    // Keep the best found so far and try dropping a larger subset.
    if (!best_subset.empty()) {
      e0 = e_min;
      p0.assign(p_min.begin(), p_min.end());
      dropped_so_far = best_subset;
    }
  }

  out.positions.assign(p0.begin(), p0.end());
  out.normalized_stress = e0;
  for (std::size_t li : dropped_so_far) {
    out.dropped_links.push_back(links[li]);
    out.weights(links[li].first, links[li].second) = 0.0;
    out.weights(links[li].second, links[li].first) = 0.0;
  }
}

}  // namespace uwp::core
