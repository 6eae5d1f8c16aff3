#include "control/actions.hpp"

#include "util/hash.hpp"

namespace uwp::control {

const char* to_string(CachePolicy p) {
  switch (p) {
    case CachePolicy::kLru:
      return "lru";
    case CachePolicy::kLfu:
      return "lfu";
    case CachePolicy::kCostAware:
      return "cost_aware";
    case CachePolicy::kCount_:
      break;
  }
  return "unknown";
}

const char* to_string(ActionKind k) {
  switch (k) {
    case ActionKind::kArenaCachePolicy:
      return "arena_cache_policy";
    case ActionKind::kArenaRetain:
      return "arena_retain";
    case ActionKind::kShaperRate:
      return "shaper_rate";
    case ActionKind::kShaperBurst:
      return "shaper_burst";
    case ActionKind::kShaperMaxDefers:
      return "shaper_max_defers";
    case ActionKind::kSearchThreads:
      return "search_threads";
    case ActionKind::kCount_:
      break;
  }
  return "unknown";
}

bool bit_equal(const ControlAction& a, const ControlAction& b) {
  return a.window == b.window && a.kind == b.kind && same_bits(a.value, b.value);
}

bool bit_equal(const ShardControls& a, const ShardControls& b) {
  return a.cache_policy == b.cache_policy && a.arena_retain == b.arena_retain &&
         same_bits(a.shaper_rate, b.shaper_rate) &&
         same_bits(a.shaper_burst, b.shaper_burst) &&
         a.shaper_max_defers == b.shaper_max_defers &&
         a.search_threads == b.search_threads;
}

}  // namespace uwp::control
