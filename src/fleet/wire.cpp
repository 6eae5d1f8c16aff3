#include "fleet/wire.hpp"

#include <bit>
#include <cstring>

#include "fleet/session.hpp"
#include "proto/payload_codec.hpp"

namespace uwp::fleet {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void ByteReader::need(std::size_t bytes) const {
  if (pos > in.size() || bytes > in.size() - pos)
    throw WireError("wire: truncated record");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return in[pos++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  const std::uint16_t v = static_cast<std::uint16_t>(in[pos] | (in[pos + 1] << 8));
  pos += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int b = 3; b >= 0; --b) v = (v << 8) | in[pos + static_cast<std::size_t>(b)];
  pos += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int b = 7; b >= 0; --b) v = (v << 8) | in[pos + static_cast<std::size_t>(b)];
  pos += 8;
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

namespace {

using Reader = ByteReader;

void put_header(std::vector<std::uint8_t>& out, RecordKind kind) {
  put_u32(out, kWireMagic);
  put_u16(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(kind));
}

RecordKind read_header(Reader& r) {
  if (r.u32() != kWireMagic) throw WireError("wire: bad magic");
  const std::uint16_t version = r.u16();
  if (version != kWireVersion)
    throw WireError("wire: unsupported version " + std::to_string(version));
  const std::uint8_t kind = r.u8();
  if (kind != static_cast<std::uint8_t>(RecordKind::kMeasurement) &&
      kind != static_cast<std::uint8_t>(RecordKind::kRoundRecord))
    throw WireError("wire: unknown record kind " + std::to_string(kind));
  return static_cast<RecordKind>(kind);
}

void expect_kind(Reader& r, RecordKind want) {
  if (read_header(r) != want) throw WireError("wire: unexpected record kind");
}

// Bitfields ride as proto::push_bits bit vectors (one bit per byte, MSB
// first) packed 8-to-a-byte on the wire.
void put_bitvector(std::vector<std::uint8_t>& out,
                   const std::vector<std::uint8_t>& bits) {
  std::uint8_t acc = 0;
  unsigned filled = 0;
  for (const std::uint8_t bit : bits) {
    acc = static_cast<std::uint8_t>((acc << 1) | (bit & 1u));
    if (++filled == 8) {
      out.push_back(acc);
      acc = 0;
      filled = 0;
    }
  }
  if (filled > 0) out.push_back(static_cast<std::uint8_t>(acc << (8 - filled)));
}

std::vector<std::uint8_t> read_bitvector(Reader& r, std::size_t nbits) {
  const std::size_t nbytes = (nbits + 7) / 8;
  r.need(nbytes);
  std::vector<std::uint8_t> bits;
  bits.reserve(nbits);
  for (std::size_t i = 0; i < nbits; ++i) {
    const std::uint8_t byte = r.in[r.pos + i / 8];
    bits.push_back(static_cast<std::uint8_t>((byte >> (7 - i % 8)) & 1u));
  }
  r.pos += nbytes;
  return bits;
}

std::size_t checked_n(const pipeline::RoundMeasurement& m) {
  const std::size_t n = m.protocol.timestamps.rows();
  if (n < 2 || n > kMaxWireDevices)
    throw std::invalid_argument("wire: device count out of range");
  if (m.protocol.timestamps.cols() != n || m.protocol.heard.rows() != n ||
      m.protocol.heard.cols() != n || m.protocol.sync_ref.size() != n ||
      m.protocol.tx_global.size() != n || m.depths.size() != n ||
      m.truth_pos.size() != n || m.truth_xy.size() != n || m.truth_depths.size() != n)
    throw std::invalid_argument("wire: inconsistent field sizes");
  return n;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

bool bit_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i)
    if (!same_bits(da[i], db[i])) return false;
  return true;
}

}  // namespace

void encode_measurement(const pipeline::RoundMeasurement& m,
                        std::vector<std::uint8_t>& out) {
  const std::size_t n = checked_n(m);
  put_header(out, RecordKind::kMeasurement);
  put_u32(out, static_cast<std::uint32_t>(n));

  for (const double v : m.protocol.timestamps.data()) put_f64(out, v);

  // heard is a 0/1 indicator matrix; ship it as one bit per link through the
  // payload codec's bitstream primitives.
  std::vector<std::uint8_t> bits;
  bits.reserve(n * n);
  for (const double h : m.protocol.heard.data()) {
    if (h != 0.0 && h != 1.0)
      throw std::invalid_argument("wire: heard entries must be 0 or 1");
    proto::push_bits(bits, h == 1.0 ? 1u : 0u, 1);
  }
  put_bitvector(out, bits);

  for (const std::size_t s : m.protocol.sync_ref) put_u64(out, s);
  for (const double v : m.protocol.tx_global) put_f64(out, v);
  put_f64(out, m.protocol.round_duration_s);

  for (const double v : m.depths) put_f64(out, v);
  put_f64(out, m.pointing_bearing_rad);

  if (m.votes.size() > n) throw std::invalid_argument("wire: more votes than devices");
  put_u32(out, static_cast<std::uint32_t>(m.votes.size()));
  bits.clear();
  for (const core::MicVote& v : m.votes) {
    if (v.node >= n) throw std::invalid_argument("wire: vote node out of range");
    if (v.mic_sign < -1 || v.mic_sign > 1)
      throw std::invalid_argument("wire: vote sign outside {-1, 0, +1}");
    put_u32(out, static_cast<std::uint32_t>(v.node));
    // Sign as a 2-bit field (00 = 0, 01 = +1, 10 = -1) in the shared
    // bitstream convention.
    proto::push_bits(bits, v.mic_sign == 0 ? 0u : (v.mic_sign > 0 ? 1u : 2u), 2);
  }
  put_bitvector(out, bits);

  for (const Vec3& p : m.truth_pos) {
    put_f64(out, p.x);
    put_f64(out, p.y);
    put_f64(out, p.z);
  }
  for (const Vec2& p : m.truth_xy) {
    put_f64(out, p.x);
    put_f64(out, p.y);
  }
  for (const double v : m.truth_depths) put_f64(out, v);
}

void decode_measurement(std::span<const std::uint8_t> in, std::size_t& pos,
                        pipeline::RoundMeasurement& out) {
  Reader r{in, pos};
  expect_kind(r, RecordKind::kMeasurement);

  const std::size_t n = r.u32();
  if (n < 2 || n > kMaxWireDevices) throw WireError("wire: device count out of range");

  out.protocol.timestamps.assign(n, n);
  for (double& v : out.protocol.timestamps.data()) v = r.f64();

  {
    const std::vector<std::uint8_t> bits = read_bitvector(r, n * n);
    std::size_t bitpos = 0;
    out.protocol.heard.assign(n, n);
    for (double& h : out.protocol.heard.data())
      h = proto::pop_bits(bits, bitpos, 1) != 0 ? 1.0 : 0.0;
  }

  out.protocol.sync_ref.resize(n);
  for (std::size_t& s : out.protocol.sync_ref) s = static_cast<std::size_t>(r.u64());
  out.protocol.tx_global.resize(n);
  for (double& v : out.protocol.tx_global) v = r.f64();
  out.protocol.round_duration_s = r.f64();

  out.depths.resize(n);
  for (double& v : out.depths) v = r.f64();
  out.pointing_bearing_rad = r.f64();

  const std::size_t votes = r.u32();
  if (votes > n) throw WireError("wire: more votes than devices");
  out.votes.resize(votes);
  for (core::MicVote& v : out.votes) {
    v.node = r.u32();
    if (v.node >= n) throw WireError("wire: vote node out of range");
  }
  {
    const std::vector<std::uint8_t> bits = read_bitvector(r, 2 * votes);
    std::size_t bitpos = 0;
    for (core::MicVote& v : out.votes) {
      const unsigned s = proto::pop_bits(bits, bitpos, 2);
      if (s > 2) throw WireError("wire: vote sign field out of domain");
      v.mic_sign = s == 0 ? 0 : (s == 1 ? 1 : -1);
    }
  }

  out.truth_pos.resize(n);
  for (Vec3& p : out.truth_pos) {
    p.x = r.f64();
    p.y = r.f64();
    p.z = r.f64();
  }
  out.truth_xy.resize(n);
  for (Vec2& p : out.truth_xy) {
    p.x = r.f64();
    p.y = r.f64();
  }
  out.truth_depths.resize(n);
  for (double& v : out.truth_depths) v = r.f64();

  pos = r.pos;
}

void encode_round_record(const RoundRecord& rec, std::vector<std::uint8_t>& out) {
  if (rec.error_2d.size() > kMaxWireDevices ||
      rec.tracked_error_2d.size() > kMaxWireDevices)
    throw std::invalid_argument("wire: device count out of range");
  put_header(out, RecordKind::kRoundRecord);
  put_u32(out, rec.round);
  put_u8(out, rec.localized ? 1 : 0);
  put_f64(out, rec.normalized_stress);
  put_u32(out, static_cast<std::uint32_t>(rec.error_2d.size()));
  for (const double v : rec.error_2d) put_f64(out, v);
  put_u32(out, static_cast<std::uint32_t>(rec.tracked_error_2d.size()));
  for (const double v : rec.tracked_error_2d) put_f64(out, v);
}

void decode_round_record(std::span<const std::uint8_t> in, std::size_t& pos,
                         RoundRecord& out) {
  Reader r{in, pos};
  expect_kind(r, RecordKind::kRoundRecord);
  out.round = r.u32();
  const std::uint8_t localized = r.u8();
  if (localized > 1) throw WireError("wire: localized flag out of domain");
  out.localized = localized == 1;
  out.normalized_stress = r.f64();
  const std::size_t n_err = r.u32();
  if (n_err > kMaxWireDevices) throw WireError("wire: device count out of range");
  out.error_2d.resize(n_err);
  for (double& v : out.error_2d) v = r.f64();
  const std::size_t n_tracked = r.u32();
  if (n_tracked > kMaxWireDevices) throw WireError("wire: device count out of range");
  out.tracked_error_2d.resize(n_tracked);
  for (double& v : out.tracked_error_2d) v = r.f64();
  pos = r.pos;
}

RecordKind peek_record_kind(std::span<const std::uint8_t> in, std::size_t pos) {
  Reader r{in, pos};
  return read_header(r);
}

bool bit_equal(const pipeline::RoundMeasurement& a, const pipeline::RoundMeasurement& b) {
  if (!bit_equal(a.protocol.timestamps, b.protocol.timestamps)) return false;
  if (!bit_equal(a.protocol.heard, b.protocol.heard)) return false;
  if (a.protocol.sync_ref != b.protocol.sync_ref) return false;
  if (!bit_equal(a.protocol.tx_global, b.protocol.tx_global)) return false;
  if (!same_bits(a.protocol.round_duration_s, b.protocol.round_duration_s))
    return false;
  if (!bit_equal(a.depths, b.depths)) return false;
  if (!same_bits(a.pointing_bearing_rad, b.pointing_bearing_rad)) return false;
  if (a.votes.size() != b.votes.size()) return false;
  for (std::size_t i = 0; i < a.votes.size(); ++i)
    if (a.votes[i].node != b.votes[i].node || a.votes[i].mic_sign != b.votes[i].mic_sign)
      return false;
  if (a.truth_pos.size() != b.truth_pos.size()) return false;
  for (std::size_t i = 0; i < a.truth_pos.size(); ++i)
    if (!same_bits(a.truth_pos[i].x, b.truth_pos[i].x) ||
        !same_bits(a.truth_pos[i].y, b.truth_pos[i].y) ||
        !same_bits(a.truth_pos[i].z, b.truth_pos[i].z))
      return false;
  if (a.truth_xy.size() != b.truth_xy.size()) return false;
  for (std::size_t i = 0; i < a.truth_xy.size(); ++i)
    if (!same_bits(a.truth_xy[i].x, b.truth_xy[i].x) ||
        !same_bits(a.truth_xy[i].y, b.truth_xy[i].y))
      return false;
  return bit_equal(a.truth_depths, b.truth_depths);
}

bool bit_equal(const RoundRecord& a, const RoundRecord& b) {
  return a.round == b.round && a.localized == b.localized &&
         same_bits(a.normalized_stress, b.normalized_stress) &&
         bit_equal(a.error_2d, b.error_2d) &&
         bit_equal(a.tracked_error_2d, b.tracked_error_2d);
}

std::uint64_t workload_digest(const std::vector<sim::GroupScenario>& workload) {
  std::uint64_t h = kFnvOffsetBasis;
  const auto mix_matrix = [&h](const Matrix& m) {
    fnv_mix(h, m.rows());
    fnv_mix(h, m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r)
      for (std::size_t c = 0; c < m.cols(); ++c) fnv_mix(h, m(r, c));
  };
  const auto mix_vec3 = [&h](const Vec3& v) {
    fnv_mix(h, v.x);
    fnv_mix(h, v.y);
    fnv_mix(h, v.z);
  };
  fnv_mix(h, workload.size());
  for (const sim::GroupScenario& sc : workload) {
    fnv_mix(h, sc.session_id);
    fnv_mix(h, static_cast<std::uint64_t>(sc.kind));
    fnv_mix(h, sc.scene.positions.size());
    for (const Vec3& p : sc.scene.positions) mix_vec3(p);
    mix_matrix(sc.scene.connectivity);
    fnv_mix(h, sc.scene.audio.size());
    for (const audio::AudioTimingConfig& a : sc.scene.audio) {
      fnv_mix(h, a.fs_nominal_hz);
      fnv_mix(h, a.speaker_skew_ppm);
      fnv_mix(h, a.mic_skew_ppm);
      fnv_mix(h, a.speaker_start_s);
      fnv_mix(h, a.mic_start_s);
      fnv_mix(h, a.self_loopback_delay_s);
    }
    fnv_mix(h, sc.scene.protocol.num_devices);
    fnv_mix(h, sc.scene.protocol.delta0_s);
    fnv_mix(h, sc.scene.protocol.t_packet_s);
    fnv_mix(h, sc.scene.protocol.t_guard_s);
    fnv_mix(h, sc.scene.protocol.sound_speed_mps);
    fnv_mix(h, sc.scene.protocol.fs_hz);
    fnv_mix(h, sc.scene.depth_sensor.bias_m);
    fnv_mix(h, sc.scene.depth_sensor.noise_sigma_m);
    fnv_mix(h, sc.scene.depth_sensor.quantization_m);
    fnv_mix(h, sc.scene.pointing.sigma_deg);
    fnv_mix(h, sc.scene.pointing.sigma_per_meter_deg);
    fnv_mix(h, sc.motion.size());
    for (const sim::GroupMotion& m : sc.motion) {
      mix_vec3(m.axis);
      fnv_mix(h, m.span_m);
      fnv_mix(h, m.speed_mps);
      fnv_mix(h, m.phase_s);
      fnv_mix(h, m.waypoints.size());
      for (const Vec3& w : m.waypoints) mix_vec3(w);
    }
    fnv_mix(h, sc.arrival.sigma_m);
    fnv_mix(h, sc.arrival.sigma_per_m);
    fnv_mix(h, sc.arrival.detection_failure_prob);
    fnv_mix(h, sc.sound_speed_error_mps);
    fnv_mix(h, sc.dropout_prob);
    fnv_mix(h, sc.admit_tick);
    fnv_mix(h, sc.lifetime_rounds);
    fnv_mix(h, sc.round_period_s);
  }
  return h;
}

}  // namespace uwp::fleet
