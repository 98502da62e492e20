#include "service/service_types.hpp"

#include <stdexcept>
#include <utility>

#include "core/hashing.hpp"

namespace prodsort {

std::string to_string(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kDropTail: return "drop-tail";
    case ShedPolicy::kEdf: return "edf";
    case ShedPolicy::kPriority: return "priority";
  }
  return "?";
}

std::string to_string(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kPending: return "pending";
    case JobOutcome::kOnTime: return "on-time";
    case JobOutcome::kLate: return "late";
    case JobOutcome::kShedQueueFull: return "shed-queue-full";
    case JobOutcome::kShedDeadline: return "shed-deadline";
    case JobOutcome::kFailed: return "failed";
  }
  return "?";
}

ShedPolicy parse_shed_policy(const std::string& name) {
  if (name == "drop-tail") return ShedPolicy::kDropTail;
  if (name == "edf") return ShedPolicy::kEdf;
  if (name == "priority") return ShedPolicy::kPriority;
  throw std::invalid_argument("unknown shed policy: '" + name + "'");
}

std::vector<Key> service_job_keys(PNode count, JobSpec spec) {
  if (!spec.payload.empty()) {
    if (static_cast<PNode>(spec.payload.size()) != count)
      throw std::invalid_argument("service_job_keys: payload size mismatch");
    return std::move(spec.payload);
  }
  std::vector<Key> keys(static_cast<std::size_t>(count));
  const std::uint64_t base = mix64(spec.key_seed);
  for (PNode i = 0; i < count; ++i) {
    const std::uint64_t h = mix64(base, static_cast<std::uint64_t>(i));
    Key k = 0;
    switch (spec.pattern % 5) {
      case 0: k = static_cast<Key>(h % 1000003); break;
      case 1: k = static_cast<Key>(h & 1u); break;
      case 2: k = static_cast<Key>(h % 4); break;
      case 3: k = static_cast<Key>(count - i); break;
      default: k = static_cast<Key>(i % 7); break;
    }
    keys[static_cast<std::size_t>(i)] = k;
  }
  return keys;
}

}  // namespace prodsort
