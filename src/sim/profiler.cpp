#include "sim/profiler.hpp"

#include <cmath>
#include <ostream>

#include "util/check.hpp"
#include "util/math.hpp"

namespace pqra::sim {

const char* event_tag_name(EventTag tag) {
  switch (tag) {
    case EventTag::kGeneric:
      return "generic";
    case EventTag::kMsgDeliver:
      return "msg_deliver";
    case EventTag::kRetryTimer:
      return "retry_timer";
    case EventTag::kDeadline:
      return "deadline";
    case EventTag::kGossip:
      return "gossip";
    case EventTag::kFault:
      return "fault";
    case EventTag::kWorkload:
      return "workload";
    case EventTag::kProbe:
      return "probe";
  }
  PQRA_CHECK(false, "profiler: unknown event tag");
  return "";
}

void Profiler::on_event(EventTag tag, std::uint64_t wall_ns,
                        double sim_advance) {
  TagStats& stats = per_tag_[static_cast<std::size_t>(tag)];
  ++stats.fires;
  stats.wall_ns += wall_ns;
  stats.sim_advance += sim_advance;
  ++fires_;
  wall_ns_ += wall_ns;
  ++wall_buckets_[util::log2_bucket(static_cast<double>(wall_ns))];
  ++advance_buckets_[util::log2_bucket(sim_advance)];
}

namespace {

void write_sparse_buckets(std::ostream& out, const std::uint64_t* buckets,
                          std::size_t n) {
  out << '{';
  bool first = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (buckets[i] == 0) continue;
    if (!first) out << ',';
    first = false;
    const double ub = util::log2_bucket_upper_bound(i);
    out << "\"";
    if (std::isinf(ub)) {
      out << "+inf";
    } else {
      out << util::format_double(ub);
    }
    out << "\":" << buckets[i];
  }
  out << '}';
}

}  // namespace

void Profiler::write_json(std::ostream& out) const {
  out << "{\n  \"fires\": " << fires_ << ",\n  \"wall_ns\": " << wall_ns_
      << ",\n  \"tags\": {";
  bool first = true;
  for (std::size_t t = 0; t < kNumEventTags; ++t) {
    const TagStats& stats = per_tag_[t];
    if (!first) out << ',';
    first = false;
    out << "\n    \"" << event_tag_name(static_cast<EventTag>(t))
        << "\": { \"fires\": " << stats.fires
        << ", \"wall_ns\": " << stats.wall_ns << ", \"sim_advance\": "
        << util::format_double(stats.sim_advance) << " }";
  }
  out << "\n  },\n  \"wall_ns_per_fire\": ";
  write_sparse_buckets(out, wall_buckets_, util::kLog2Buckets);
  out << ",\n  \"sim_advance_per_fire\": ";
  write_sparse_buckets(out, advance_buckets_, util::kLog2Buckets);
  out << "\n}\n";
}

}  // namespace pqra::sim
