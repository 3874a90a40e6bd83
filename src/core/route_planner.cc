#include "core/route_planner.h"

#include <cstdlib>
#include <cstring>

namespace sweetknn::core {

namespace {

PlannerMode ModeFromEnv(PlannerMode fallback) {
  const char* env = std::getenv("SWEETKNN_PLANNER");
  if (env == nullptr) return fallback;
  if (std::strcmp(env, "auto") == 0) return PlannerMode::kAuto;
  if (std::strcmp(env, "device") == 0) return PlannerMode::kForceDevice;
  if (std::strcmp(env, "host") == 0) return PlannerMode::kForceHost;
  return fallback;
}

}  // namespace

RoutePlanner::RoutePlanner(const PlannerConfig& config)
    : mode_(static_cast<int>(ModeFromEnv(config.mode))) {}

QueryRoute RoutePlanner::Choose() {
  const uint64_t decision =
      decisions_.fetch_add(1, std::memory_order_relaxed);
  QueryRoute route;
  switch (mode()) {
    case PlannerMode::kForceDevice:
      route = QueryRoute::kDevice;
      break;
    case PlannerMode::kForceHost:
      route = QueryRoute::kHost;
      break;
    case PlannerMode::kAuto:
    default:
      route = decision % kSampleInterval == 0 ? QueryRoute::kDevice
                                              : QueryRoute::kHost;
      break;
  }
  (route == QueryRoute::kDevice ? device_routes_ : host_routes_)
      .fetch_add(1, std::memory_order_relaxed);
  return route;
}

}  // namespace sweetknn::core
