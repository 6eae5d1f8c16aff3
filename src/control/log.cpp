#include "control/log.hpp"

#include "util/hash.hpp"

namespace uwp::control {

bool bit_equal(const ControlLog& a, const ControlLog& b) {
  if (a.windows_observed != b.windows_observed) return false;
  if (a.actions.size() != b.actions.size()) return false;
  for (std::size_t i = 0; i < a.actions.size(); ++i)
    if (!bit_equal(a.actions[i], b.actions[i])) return false;
  return true;
}

std::uint64_t control_log_digest(const ControlLog& log) {
  std::uint64_t h = kFnvOffsetBasis;
  fnv_mix(h, log.windows_observed);
  fnv_mix(h, log.actions.size());
  for (const ControlAction& a : log.actions) {
    fnv_mix(h, a.window);
    fnv_mix(h, static_cast<std::uint64_t>(a.kind));
    fnv_mix(h, a.value);
  }
  return h;
}

}  // namespace uwp::control
