// Fixed log-bucket histogram for span latencies and depth samples.
//
// Buckets are geometric: bucket b covers [min * 2^(b/P), min * 2^((b+1)/P))
// with P buckets per octave, so relative resolution is constant (~19% per
// bucket at P = 4) across the whole range and recording is O(1) with no
// allocation after construction. The default config spans 1 ns to ~3e5
// (48 octaves), wide enough for sub-microsecond quantize spans, multi-ms
// solver spans, and integer queue depths alike.
//
// Bucketing is exact at octave boundaries (frexp, not a raw log), which is
// what the bucket-edge tests pin: value min*2^k lands in bucket k*P, never
// one off due to libm rounding. Quantiles walk the cumulative counts and
// report the geometric midpoint of the target bucket, clamped to the exact
// observed [min_seen, max_seen] range.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uwp::telemetry {

class Histogram {
 public:
  // `min_value`: lower edge of bucket 0 (values below clamp into bucket 0).
  // `buckets_per_octave`: resolution P. `buckets`: total bucket count.
  explicit Histogram(double min_value = 1e-9, int buckets_per_octave = 4,
                     std::size_t buckets = 192);

  void record(double v);

  // Quantile in (0, 1]; 0.5 = p50. Returns 0 for an empty histogram.
  double quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / double(count_); }
  double min_seen() const { return count_ == 0 ? 0.0 : min_seen_; }
  double max_seen() const { return count_ == 0 ? 0.0 : max_seen_; }

  // Bucket geometry (exposed for the edge tests and the merge check).
  // bucket_index is total: NaN and values <= min_value map to bucket 0, +Inf
  // and values past the top edge to the last bucket.
  std::size_t bucket_index(double v) const;
  double bucket_lower_edge(std::size_t b) const;
  std::size_t buckets() const { return counts_.size(); }
  double min_value() const { return min_; }
  int buckets_per_octave() const { return per_octave_; }

  // Add `o`'s counts into this histogram. Throws std::invalid_argument if
  // the bucket geometries differ.
  void merge(const Histogram& o);

 private:
  double min_ = 1e-9;
  int per_octave_ = 4;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_seen_ = 0.0;
  double max_seen_ = 0.0;
};

}  // namespace uwp::telemetry
