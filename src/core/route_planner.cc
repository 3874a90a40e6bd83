#include "core/route_planner.h"

#include <cstdlib>
#include <cstring>

namespace sweetknn::core {

namespace {

PlannerMode ModeFromEnv(PlannerMode fallback) {
  const char* env = std::getenv("SWEETKNN_PLANNER");
  if (env == nullptr) return fallback;
  if (std::strcmp(env, "device") == 0) return PlannerMode::kForceDevice;
  if (std::strcmp(env, "host") == 0 || std::strcmp(env, "auto") == 0) {
    return PlannerMode::kForceHost;
  }
  return fallback;
}

}  // namespace

RoutePlanner::RoutePlanner(const PlannerConfig& config)
    : mode_(static_cast<int>(ModeFromEnv(config.mode))) {}

QueryRoute RoutePlanner::Choose() {
  if (mode() == PlannerMode::kForceDevice) {
    device_routes_.fetch_add(1, std::memory_order_relaxed);
    return QueryRoute::kDevice;
  }
  host_routes_.fetch_add(1, std::memory_order_relaxed);
  return QueryRoute::kHost;
}

}  // namespace sweetknn::core
