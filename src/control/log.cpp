#include "control/log.hpp"

#include <cstring>

namespace uwp::control {
namespace {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t dbits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

}  // namespace

bool bit_equal(const ControlLog& a, const ControlLog& b) {
  if (a.windows_observed != b.windows_observed) return false;
  if (a.actions.size() != b.actions.size()) return false;
  for (std::size_t i = 0; i < a.actions.size(); ++i)
    if (!bit_equal(a.actions[i], b.actions[i])) return false;
  return true;
}

std::uint64_t control_log_digest(const ControlLog& log) {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv_u64(h, log.windows_observed);
  h = fnv_u64(h, log.actions.size());
  for (const ControlAction& a : log.actions) {
    h = fnv_u64(h, a.window);
    h = fnv_u64(h, static_cast<std::uint64_t>(a.kind));
    h = fnv_u64(h, dbits(a.value));
  }
  return h;
}

}  // namespace uwp::control
