#include "explore/profile.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/math.hpp"

namespace pqra::explore {

namespace {

using DelayKind = sim::DelaySpec::Kind;

[[noreturn]] void bad_line(const std::string& line, const char* why) {
  throw std::logic_error("bad profile line (" + std::string(why) + "): " +
                         line);
}

/// The whole of \p value as a T: no sign on an integer, no overflow, no
/// leading space or trailing text.
template <typename T>
T parse_whole(const std::string& value, const std::string& line,
              const char* why) {
  T v{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end) bad_line(line, why);
  return v;
}

std::uint64_t parse_u64(const std::string& value, const std::string& line) {
  return parse_whole<std::uint64_t>(value, line, "expected integer");
}

double parse_f64(const std::string& value, const std::string& line) {
  const double v = parse_whole<double>(value, line, "expected number");
  if (!std::isfinite(v)) bad_line(line, "expected a finite number");
  return v;
}

bool parse_bool(const std::string& value, const std::string& line) {
  if (value == "0") return false;
  if (value == "1") return true;
  bad_line(line, "expected 0 or 1");
}

}  // namespace

ScheduleProfile ScheduleProfile::from_seed(std::uint64_t seed) {
  ScheduleProfile p;
  p.seed = seed;
  util::Rng root(seed);

  // Shape stream: every structural dimension in a fixed draw order, so the
  // profile is a pure function of the seed.
  util::Rng shape = root.fork(1);
  p.num_servers = 3 + static_cast<std::size_t>(shape.below(28));  // [3, 30]
  p.quorum_size = 1 + static_cast<std::size_t>(shape.below(
                          std::min<std::uint64_t>(p.num_servers, 6)));
  p.num_clients = 1 + static_cast<std::size_t>(shape.below(4));
  p.ops_per_client = 10 + static_cast<std::size_t>(shape.below(31));
  p.alg1 = shape.bernoulli(0.15);
  // Plain (non-monotone) probabilistic registers give Alg. 1 no convergence
  // guarantee, so the iterative scenario always runs monotone clients.
  p.monotone = shape.bernoulli(0.6) || p.alg1;
  p.check_monotone = p.monotone;
  p.read_repair = shape.bernoulli(0.25);
  p.write_back = shape.bernoulli(0.15);
  // Snapshot reads and atomic write-back are mutually exclusive in the
  // client (write-back of a whole-store read is undefined).
  p.snapshot_reads = !p.write_back && shape.bernoulli(0.2);
  p.gossip_interval =
      shape.bernoulli(0.3) ? 5.0 + 20.0 * shape.uniform01() : 0.0;
  switch (shape.below(4)) {
    case 0:
      p.delay = {DelayKind::kConstant, 1.0};
      break;
    case 1:
      p.delay = {DelayKind::kExponential, 1.0};
      break;
    case 2:
      p.delay = {DelayKind::kUniform, 0.5, 0.5 + 3.0 * shape.uniform01()};
      break;
    default:
      p.delay = {DelayKind::kLognormal, 0.1, 0.0,
                 0.5 + 0.5 * shape.uniform01()};
      break;
  }
  p.horizon = 60.0 + 120.0 * shape.uniform01();

  // Keyspace shape, appended to the end of the stream so every pre-sharding
  // dimension keeps its draw position (old seeds reproduce their old
  // profiles except for these trailing knobs).  alg1 short-circuits before
  // the bernoulli: iterative profiles consume no keyspace draws at all.
  if (!p.alg1 && shape.bernoulli(0.35)) {
    p.keys_per_client = 2 + static_cast<std::size_t>(shape.below(15));
    p.key_skew =
        shape.bernoulli(0.5) ? 0.6 + 0.39 * shape.uniform01() : 0.0;
    if (shape.bernoulli(0.2) && p.num_clients >= 2) {
      p.writers_per_key = 2;
    }
    if (shape.bernoulli(0.6)) {
      p.replicas = p.quorum_size + static_cast<std::size_t>(shape.below(
                       p.num_servers - p.quorum_size + 1));
      p.ring_vnodes = 4 + static_cast<std::size_t>(shape.below(13));
      // Per-key replica groups have no whole-store read: a snapshot would
      // have to contact every group (quorum_register_client forbids it).
      p.snapshot_reads = false;
    }
  }

  // Fault stream: schedule churn through the same mutation operator the
  // shrinker understands how to take apart.  Multi-key profiles expose the
  // keyspace to the operator so it can draw key-addressed targets.
  util::Rng fault_rng = root.fork(2);
  const std::size_t edits = 1 + static_cast<std::size_t>(fault_rng.below(6));
  const std::size_t fault_keys = p.keys_per_client > 1 ? p.num_keys() : 0;
  for (std::size_t i = 0; i < edits; ++i) {
    p.faults.mutate(p.num_servers, p.horizon, fault_rng, fault_keys);
  }
  if (p.alg1) {
    // Heavy message loss on top of crash churn can push convergence past any
    // reasonable round cap; the iterative scenario tests ordering and
    // staleness, not raw packet loss, so cap the loss knobs.
    net::MessageFaults mf = p.faults.message_faults();
    mf.drop_probability = std::min(mf.drop_probability, 0.05);
    mf.duplicate_probability = std::min(mf.duplicate_probability, 0.1);
    mf.reorder_probability = std::min(mf.reorder_probability, 0.1);
    p.faults = net::FaultPlan::from_parts(p.faults.events(), mf);
  }
  return p;
}

std::string ScheduleProfile::serialize() const {
  std::ostringstream os;
  os << "pqra-explore-profile v1\n";
  os << "seed " << seed << "\n";
  os << "servers " << num_servers << "\n";
  os << "quorum " << quorum_size << "\n";
  os << "clients " << num_clients << "\n";
  os << "ops " << ops_per_client << "\n";
  os << "monotone " << (monotone ? 1 : 0) << "\n";
  os << "check-monotone " << (check_monotone ? 1 : 0) << "\n";
  os << "read-repair " << (read_repair ? 1 : 0) << "\n";
  os << "write-back " << (write_back ? 1 : 0) << "\n";
  os << "snapshot-reads " << (snapshot_reads ? 1 : 0) << "\n";
  os << "alg1 " << (alg1 ? 1 : 0) << "\n";
  os << "keys " << keys_per_client << "\n";
  os << "key-skew " << util::format_double(key_skew) << "\n";
  os << "writers-per-key " << writers_per_key << "\n";
  os << "replicas " << replicas << "\n";
  os << "vnodes " << ring_vnodes << "\n";
  os << "bug-cross-key " << (bug_cross_key ? 1 : 0) << "\n";
  os << "durable " << (durable ? 1 : 0) << "\n";
  os << "snapshot-every " << snapshot_every << "\n";
  os << "bug-skip-crc " << (bug_skip_crc ? 1 : 0) << "\n";
  os << "gossip " << util::format_double(gossip_interval) << "\n";
  os << "delay " << delay.serialize() << "\n";
  os << "horizon " << util::format_double(horizon) << "\n";
  os << "faults " << (faults.empty() ? "-" : faults.serialize()) << "\n";
  return os.str();
}

ScheduleProfile ScheduleProfile::parse(const std::string& text) {
  ScheduleProfile p;
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != "pqra-explore-profile v1") {
        bad_line(line, "expected 'pqra-explore-profile v1' header");
      }
      saw_header = true;
      continue;
    }
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) bad_line(line, "expected 'key value'");
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (key == "seed") {
      p.seed = parse_u64(value, line);
    } else if (key == "servers") {
      p.num_servers = static_cast<std::size_t>(parse_u64(value, line));
    } else if (key == "quorum") {
      p.quorum_size = static_cast<std::size_t>(parse_u64(value, line));
    } else if (key == "clients") {
      p.num_clients = static_cast<std::size_t>(parse_u64(value, line));
    } else if (key == "ops") {
      p.ops_per_client = static_cast<std::size_t>(parse_u64(value, line));
    } else if (key == "monotone") {
      p.monotone = parse_bool(value, line);
    } else if (key == "check-monotone") {
      p.check_monotone = parse_bool(value, line);
    } else if (key == "read-repair") {
      p.read_repair = parse_bool(value, line);
    } else if (key == "write-back") {
      p.write_back = parse_bool(value, line);
    } else if (key == "snapshot-reads") {
      p.snapshot_reads = parse_bool(value, line);
    } else if (key == "alg1") {
      p.alg1 = parse_bool(value, line);
    } else if (key == "keys") {
      // Keyspace keys default when absent so pre-sharding replay files
      // still parse (they describe single-key runs, which the defaults are).
      p.keys_per_client = static_cast<std::size_t>(parse_u64(value, line));
    } else if (key == "key-skew") {
      p.key_skew = parse_f64(value, line);
    } else if (key == "writers-per-key") {
      p.writers_per_key = static_cast<std::size_t>(parse_u64(value, line));
    } else if (key == "replicas") {
      p.replicas = static_cast<std::size_t>(parse_u64(value, line));
    } else if (key == "vnodes") {
      p.ring_vnodes = static_cast<std::size_t>(parse_u64(value, line));
    } else if (key == "bug-cross-key") {
      p.bug_cross_key = parse_bool(value, line);
    } else if (key == "durable") {
      // Durability keys default when absent so pre-durability replay files
      // still parse (they describe non-durable runs, which the defaults are).
      p.durable = parse_bool(value, line);
    } else if (key == "snapshot-every") {
      p.snapshot_every = static_cast<std::size_t>(parse_u64(value, line));
    } else if (key == "bug-skip-crc") {
      p.bug_skip_crc = parse_bool(value, line);
    } else if (key == "gossip") {
      p.gossip_interval = parse_f64(value, line);
      if (p.gossip_interval < 0.0) bad_line(line, "expected a period >= 0");
    } else if (key == "delay") {
      p.delay = sim::DelaySpec::parse(value);
    } else if (key == "horizon") {
      p.horizon = parse_f64(value, line);
    } else if (key == "faults") {
      p.faults = value == "-" ? net::FaultPlan{} : net::FaultPlan::parse(value);
    } else {
      bad_line(line, "unknown key");
    }
  }
  if (!saw_header) {
    throw std::logic_error("not a pqra-explore profile: missing header");
  }
  if (p.num_servers == 0 || p.num_clients == 0 || p.quorum_size == 0 ||
      p.quorum_size > p.num_servers || p.horizon <= 0.0 ||
      (p.snapshot_reads && p.write_back)) {
    throw std::logic_error("profile out of range: " + p.serialize());
  }
  if (p.keys_per_client == 0 || p.ring_vnodes == 0 ||
      p.writers_per_key == 0 || p.writers_per_key > p.num_clients ||
      p.key_skew < 0.0 || p.key_skew >= 1.0 ||
      (p.replicas != 0 &&
       (p.replicas < p.quorum_size || p.replicas > p.num_servers)) ||
      (p.replicas != 0 && p.snapshot_reads) ||
      (p.alg1 && (p.keys_per_client != 1 || p.writers_per_key != 1 ||
                  p.key_skew != 0.0 || p.replicas != 0 || p.bug_cross_key))) {
    throw std::logic_error("profile keyspace out of range: " + p.serialize());
  }
  if ((p.bug_skip_crc && !p.durable) || (p.alg1 && p.durable)) {
    throw std::logic_error("profile durability out of range: " +
                           p.serialize());
  }
  return p;
}

std::size_t ScheduleProfile::cost() const {
  const net::MessageFaults& mf = faults.message_faults();
  const std::size_t knobs =
      static_cast<std::size_t>(mf.drop_probability > 0.0) +
      static_cast<std::size_t>(mf.duplicate_probability > 0.0) +
      static_cast<std::size_t>(mf.extra_delay > 0.0) +
      static_cast<std::size_t>(mf.reorder_probability > 0.0);
  const std::size_t flags =
      static_cast<std::size_t>(gossip_interval > 0.0) +
      static_cast<std::size_t>(read_repair) +
      static_cast<std::size_t>(write_back) +
      static_cast<std::size_t>(snapshot_reads);
  // Keyspace terms are zero at the single-key defaults, so legacy costs are
  // unchanged; extra keys weigh enough that halving the keyspace beats
  // trimming a flag.
  const std::size_t key_knobs =
      static_cast<std::size_t>(key_skew > 0.0) +
      static_cast<std::size_t>(writers_per_key > 1) +
      static_cast<std::size_t>(replicas > 0);
  // Fault events dominate (removing one always wins), then workload size,
  // then cluster shape and the horizon so every shrinking pass can lower it.
  // Durability costs enough that a repro which survives the durable->plain
  // flip sheds it, but not so much the shrinker prefers gutting the
  // workload first.  Zero at the non-durable default: legacy costs hold.
  const std::size_t durable_cost =
      durable ? 2 + static_cast<std::size_t>(snapshot_every > 0) : 0;
  return 16 * faults.events().size() + num_clients * ops_per_client +
         num_servers + quorum_size + 4 * knobs + 2 * flags +
         8 * (keys_per_client - 1) + 2 * key_knobs + durable_cost +
         static_cast<std::size_t>(horizon);
}

void ScheduleProfile::mutate_keyspace(util::Rng& rng) {
  switch (rng.below(5)) {
    case 0:  // resize the per-client keyspace, [1, 16]
      keys_per_client = 1 + static_cast<std::size_t>(rng.below(16));
      break;
    case 1:  // toggle / redraw read skew
      key_skew = rng.bernoulli(0.5) ? 0.6 + 0.39 * rng.uniform01() : 0.0;
      break;
    case 2:  // contended keys (capped by the client count)
      writers_per_key =
          1 + static_cast<std::size_t>(rng.below(num_clients));
      break;
    case 3:  // shard onto a ring, or back to full replication
      if (rng.bernoulli(0.5)) {
        replicas = quorum_size + static_cast<std::size_t>(rng.below(
                       num_servers - quorum_size + 1));
        snapshot_reads = false;
      } else {
        replicas = 0;
      }
      break;
    default:  // re-balance the ring
      ring_vnodes = 1 + static_cast<std::size_t>(rng.below(16));
      break;
  }
}

ScheduleProfile force_multikey(ScheduleProfile p) {
  if (p.alg1) return p;
  util::Rng mk = util::Rng(p.seed).fork(3);
  if (p.keys_per_client < 2) {
    p.keys_per_client = 2 + static_cast<std::size_t>(mk.below(15));
  }
  if (p.key_skew == 0.0 && mk.bernoulli(0.5)) {
    p.key_skew = 0.6 + 0.39 * mk.uniform01();
  }
  if (p.replicas == 0 && mk.bernoulli(0.7)) {
    p.replicas = p.quorum_size + static_cast<std::size_t>(mk.below(
                     p.num_servers - p.quorum_size + 1));
    p.ring_vnodes = 4 + static_cast<std::size_t>(mk.below(13));
  }
  // Sharded stores have no whole-store snapshot read.
  if (p.replicas > 0) p.snapshot_reads = false;
  return p;
}

ScheduleProfile force_durable(ScheduleProfile p) {
  if (p.alg1) return p;
  util::Rng d = util::Rng(p.seed).fork(4);
  p.durable = true;
  p.snapshot_every = std::size_t{4} << d.below(5);  // 4..64
  const std::size_t fault_keys = p.keys_per_client > 1 ? p.num_keys() : 0;
  const std::size_t extra = static_cast<std::size_t>(d.below(3));
  for (std::size_t i = 0; i < 1 + extra; ++i) {
    // Durability-only edits: loop until the mutate draw lands in the
    // durability case so every sweep seed actually exercises the storage
    // fault machinery (the general-purpose edits already ran in from_seed).
    const std::size_t before = p.faults.events().size();
    while (p.faults.events().size() == before) {
      net::FaultPlan probe_plan = p.faults;
      probe_plan.mutate(p.num_servers, p.horizon, d, fault_keys,
                        /*durability=*/true);
      if (probe_plan.events().size() > before &&
          (probe_plan.events().back().kind == net::FaultKind::kTornWrite ||
           probe_plan.events().back().kind == net::FaultKind::kFsyncLoss ||
           probe_plan.events().back().kind ==
               net::FaultKind::kClearFsyncLoss)) {
        p.faults = std::move(probe_plan);
      }
    }
  }
  return p;
}

}  // namespace pqra::explore
