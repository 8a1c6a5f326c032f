#include "core/options.hpp"

#include <string>

#include "resilience/fault_plan.hpp"

namespace lassm::core {

namespace {

constexpr bool is_pow2(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

Status bad(const std::string& what) {
  return Status(ErrorCode::kInvalidArgument, "AssemblyOptions: " + what);
}

}  // namespace

const resilience::FaultPlan& AssemblyOptions::plan() const noexcept {
  static const resilience::FaultPlan kEmpty;
  return fault_plan != nullptr ? *fault_plan : kEmpty;
}

Status AssemblyOptions::validate() const {
  if (max_walk_len == 0) return bad("max_walk_len must be > 0");
  if (mer_ladder_step == 0) return bad("mer_ladder_step must be > 0");
  if (min_mer_len == 0) return bad("min_mer_len must be > 0");
  if (max_mer_rungs == 0) return bad("max_mer_rungs must be > 0");
  if (!(table_load_factor > 0.0) || table_load_factor > 1.0)
    return bad("table_load_factor must be in (0, 1]");
  if (batch_mem_budget_bytes == 0)
    return bad("batch_mem_budget_bytes must be > 0");
  if (subgroup_override != 0 &&
      (!is_pow2(subgroup_override) || subgroup_override > 128))
    return bad("subgroup_override must be a power of two <= 128");
  if (min_viable_votes < 0) return bad("min_viable_votes must be >= 0");
  return Status::ok();
}

Status AssemblyOptions::validate_for_device(
    std::uint32_t device_max_subgroup_width) const {
  if (Status s = validate(); !s) return s;
  if (subgroup_override != 0 &&
      subgroup_override > device_max_subgroup_width) {
    return bad("subgroup_override (" + std::to_string(subgroup_override) +
               ") exceeds the device's maximum sub-group width (" +
               std::to_string(device_max_subgroup_width) + ")");
  }
  return Status::ok();
}

}  // namespace lassm::core
