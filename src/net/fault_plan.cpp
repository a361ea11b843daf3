#include "net/fault_plan.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <optional>
#include <string_view>

#include "util/check.hpp"
#include "util/math.hpp"

namespace pqra::net {

namespace {

/// How a timed verb's argument is written between `name` and `@T`.
enum class Shape : std::uint8_t {
  kTarget,        ///< `crash:N@T` — a node or `k<KEY>` target
  kTargetFactor,  ///< `slow:N*F@T` — a target and a delay factor
  kGroups,        ///< `partition:0-2,k7|3@T` — `|`-separated member groups
  kNone,          ///< `heal@T`
};

struct Verb {
  std::string_view name;
  FaultKind kind;
  Shape shape;
};

/// The fault vocabulary: one row per FaultKind.  parse() and serialize()
/// both read it.
constexpr Verb kVerbs[] = {
    {"crash", FaultKind::kCrash, Shape::kTarget},
    {"recover", FaultKind::kRecover, Shape::kTarget},
    {"slow", FaultKind::kSlow, Shape::kTargetFactor},
    {"noslow", FaultKind::kClearSlow, Shape::kTarget},
    {"partition", FaultKind::kPartition, Shape::kGroups},
    {"heal", FaultKind::kHeal, Shape::kNone},
    {"tornwrite", FaultKind::kTornWrite, Shape::kTarget},
    {"fsyncloss", FaultKind::kFsyncLoss, Shape::kTarget},
    {"nofsyncloss", FaultKind::kClearFsyncLoss, Shape::kTarget},
};

const Verb& verb_of(FaultKind kind) {
  return *std::find_if(std::begin(kVerbs), std::end(kVerbs),
                       [kind](const Verb& verb) { return verb.kind == kind; });
}

/// Window sugar `name:N@T1-T2`: the open verb at T1, the close verb at T2.
/// It parses to the pair, which is also its serialized form.
struct Window {
  std::string_view name;
  FaultKind open;
  FaultKind close;
};

constexpr Window kWindows[] = {
    {"outage", FaultKind::kCrash, FaultKind::kRecover},
    {"fsyncloss", FaultKind::kFsyncLoss, FaultKind::kClearFsyncLoss},
};

/// The message-fault knobs `name=V`, plus reorder's `name=P:MAXDELAY`, in
/// serialize() order; a knob is written when its first value is > 0.
struct Knob {
  std::string_view name;
  double MessageFaults::*value;
  double MessageFaults::*second = nullptr;
};

constexpr Knob kKnobs[] = {
    {"drop", &MessageFaults::drop_probability},
    {"dup", &MessageFaults::duplicate_probability},
    {"delay", &MessageFaults::extra_delay},
    {"reorder", &MessageFaults::reorder_probability,
     &MessageFaults::reorder_delay_max},
};

template <typename Row, std::size_t N>
const Row* find_row(const Row (&table)[N], std::string_view name) {
  for (const Row& row : table) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

bool has_keys(const FaultPlan::Event& ev) {
  return ev.node_is_key ||
         std::any_of(
             ev.group_keys.begin(), ev.group_keys.end(),
             [](const std::vector<KeyId>& keys) { return !keys.empty(); });
}

/// Why \p ev cannot be in a plan, or nullptr when it can.
const char* event_error(const FaultPlan::Event& ev) {
  if (!std::isfinite(ev.at) || ev.at < 0.0) {
    return "event time must be finite and >= 0";
  }
  if (ev.kind == FaultKind::kSlow &&
      (!std::isfinite(ev.factor) || ev.factor < 1.0)) {
    return "slow factor must be finite and >= 1";
  }
  if (ev.kind != FaultKind::kPartition) return nullptr;
  if (ev.groups.size() < 2) return "a partition needs at least two groups";
  if (!ev.group_keys.empty() && ev.group_keys.size() != ev.groups.size()) {
    return "partition key groups must parallel the node groups";
  }
  std::vector<NodeId> members;
  for (std::size_t g = 0; g < ev.groups.size(); ++g) {
    if (ev.groups[g].empty() &&
        (ev.group_keys.empty() || ev.group_keys[g].empty())) {
      return "empty partition group";
    }
    members.insert(members.end(), ev.groups[g].begin(), ev.groups[g].end());
  }
  std::sort(members.begin(), members.end());
  if (std::adjacent_find(members.begin(), members.end()) != members.end()) {
    return "node in two partition groups";
  }
  return nullptr;
}

/// Why \p m is not a message-fault configuration, or nullptr when it is.
const char* message_faults_error(const MessageFaults& m) {
  const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  const auto delay = [](double d) { return std::isfinite(d) && d >= 0.0; };
  if (!probability(m.drop_probability) ||
      !probability(m.duplicate_probability) ||
      !probability(m.reorder_probability)) {
    return "probability must lie in [0, 1]";
  }
  if (!delay(m.extra_delay) || !delay(m.reorder_delay_max)) {
    return "delay must be finite and >= 0";
  }
  return nullptr;
}

/// A reorder delay with zero probability is unobservable and has no clause
/// in the serialize() grammar; normalizing it away here keeps
/// parse(serialize(plan)) structurally equal to plan, not just
/// string-equal (tests/net/fault_plan_roundtrip_test.cpp).
MessageFaults normalized(MessageFaults faults) {
  if (faults.reorder_probability <= 0.0) faults.reorder_delay_max = 0.0;
  return faults;
}

/// The clause for \p ev in the parse() grammar.
std::string clause_text(const FaultPlan::Event& ev) {
  const Verb& verb = verb_of(ev.kind);
  std::string text(verb.name);
  // Key-addressed targets carry the `k` prefix of the grammar.
  const std::string target =
      (ev.node_is_key ? "k" : "") + std::to_string(ev.node);
  switch (verb.shape) {
    case Shape::kTarget:
      text += ":" + target;
      break;
    case Shape::kTargetFactor:
      text += ":" + target + "*" + util::format_double(ev.factor);
      break;
    case Shape::kGroups:
      for (std::size_t g = 0; g < ev.groups.size(); ++g) {
        std::string items;  // ",a,b,kK": node members, then key members
        for (const NodeId n : ev.groups[g]) items += "," + std::to_string(n);
        if (g < ev.group_keys.size()) {
          for (const KeyId k : ev.group_keys[g]) {
            items += ",k" + std::to_string(k);
          }
        }
        text += (g == 0 ? ":" : "|") + items.erase(0, 1);
      }
      break;
    case Shape::kNone:
      break;
  }
  return text + "@" + util::format_double(ev.at);
}

[[noreturn]] void parse_fail(std::string_view clause, const char* why) {
  throw std::logic_error("bad fault-plan clause '" + std::string(clause) +
                         "': " + why);
}

/// Calls \p fn on each \p sep-separated piece of \p text, empty ones too.
template <typename Fn>
void for_each_piece(std::string_view text, char sep, Fn&& fn) {
  for (;;) {
    const std::size_t at = text.find(sep);
    fn(text.substr(0, at));
    if (at == std::string_view::npos) return;
    text.remove_prefix(at + 1);
  }
}

/// A finite number; range rules are event_error's and
/// message_faults_error's.
double parse_number(std::string_view clause, std::string_view text) {
  const std::optional<double> value = util::parse_whole<double>(text);
  if (!value) parse_fail(clause, "expected a finite number");
  return *value;
}

/// A node or key id: a whole number that fits 32 bits.
std::uint32_t parse_id(std::string_view clause, std::string_view text) {
  const std::optional<std::uint32_t> id =
      util::parse_whole<std::uint32_t>(text);
  if (!id) parse_fail(clause, "expected a whole-number id below 2^32");
  return *id;
}

/// A node-or-key target position: `7` names node 7, `k7` names the node
/// owning key 7 (docs/SHARDING.md).
void parse_target(std::string_view clause, std::string_view text,
                  FaultPlan::Event& ev) {
  ev.node_is_key = !text.empty() && text.front() == 'k';
  ev.node = parse_id(clause, ev.node_is_key ? text.substr(1) : text);
}

/// Most ids one `a-b` range may expand to.
constexpr std::uint64_t kMaxRangeIds = std::uint64_t{1} << 16;

/// Parses `|`-separated groups of `,`-lists, `a-b` node ranges and
/// `k<KEY>` items, e.g. "0-3,7,k12|4".
void parse_groups(std::string_view clause, std::string_view text,
                  FaultPlan::Event& ev) {
  std::vector<std::vector<KeyId>> group_keys;
  bool any_keys = false;
  for_each_piece(text, '|', [&](std::string_view group) {
    std::vector<NodeId>& nodes = ev.groups.emplace_back();
    std::vector<KeyId>& keys = group_keys.emplace_back();
    for_each_piece(group, ',', [&](std::string_view item) {
      if (!item.empty() && item.front() == 'k') {
        keys.push_back(parse_id(clause, item.substr(1)));
        return;
      }
      const std::size_t dash = item.find('-');
      if (dash == std::string_view::npos) {
        nodes.push_back(parse_id(clause, item));
        return;
      }
      const std::uint64_t lo = parse_id(clause, item.substr(0, dash));
      const std::uint64_t hi = parse_id(clause, item.substr(dash + 1));
      if (hi < lo) parse_fail(clause, "range upper bound below lower bound");
      if (hi - lo >= kMaxRangeIds) {
        parse_fail(clause, "a range spans more than 2^16 ids");
      }
      for (std::uint64_t n = lo; n <= hi; ++n) {
        nodes.push_back(static_cast<NodeId>(n));
      }
    });
    any_keys = any_keys || !keys.empty();
  });
  if (any_keys) ev.group_keys = std::move(group_keys);
}

/// Position of the `-` splitting a `T1-T2` window, or npos.  A `-` right
/// after an exponent marker belongs to the number (`1e-05`), and times are
/// never negative, so a leading `-` is not a split either.
std::size_t window_dash(std::string_view time) {
  for (std::size_t i = 1; i < time.size(); ++i) {
    if (time[i] == '-' && time[i - 1] != 'e' && time[i - 1] != 'E') return i;
  }
  return std::string_view::npos;
}

/// Checks \p ev with add()'s rules, naming \p clause, then adds it.
void add_parsed(std::string_view clause, FaultPlan::Event ev,
                FaultPlan& plan) {
  if (const char* why = event_error(ev)) parse_fail(clause, why);
  plan.add(std::move(ev));
}

/// One timed clause `head@time`.
void parse_timed(std::string_view clause, std::string_view head,
                 std::string_view time, FaultPlan& plan) {
  const std::size_t colon = head.find(':');
  const std::string_view name = head.substr(0, colon);
  const std::string_view arg =
      head.substr(colon == std::string_view::npos ? head.size() : colon + 1);
  const Window* window = find_row(kWindows, name);
  const std::size_t dash = window_dash(time);
  if (window != nullptr && dash != std::string_view::npos) {
    FaultPlan::Event open{.at = parse_number(clause, time.substr(0, dash)),
                          .kind = window->open};
    parse_target(clause, arg, open);
    FaultPlan::Event close = open;
    close.at = parse_number(clause, time.substr(dash + 1));
    close.kind = window->close;
    if (!(close.at > open.at)) {
      parse_fail(clause, "window end must be after start");
    }
    add_parsed(clause, std::move(open), plan);
    add_parsed(clause, std::move(close), plan);
    return;
  }
  const Verb* verb = find_row(kVerbs, name);
  if (verb == nullptr) {
    parse_fail(clause, window != nullptr ? "a window needs '@from-to'"
                                         : "unknown event kind");
  }
  FaultPlan::Event ev{.at = parse_number(clause, time), .kind = verb->kind};
  switch (verb->shape) {
    case Shape::kTarget:
      parse_target(clause, arg, ev);
      break;
    case Shape::kTargetFactor: {
      const std::size_t star = arg.find('*');
      if (star == std::string_view::npos) {
        parse_fail(clause, "needs a 'N*F' target and factor");
      }
      parse_target(clause, arg.substr(0, star), ev);
      ev.factor = parse_number(clause, arg.substr(star + 1));
      break;
    }
    case Shape::kGroups:
      parse_groups(clause, arg, ev);
      break;
    case Shape::kNone:
      if (colon != std::string_view::npos) {
        parse_fail(clause, "takes no target");
      }
      break;
  }
  add_parsed(clause, std::move(ev), plan);
}

/// One message-fault knob `key=value` into \p m.
void parse_knob(std::string_view clause, std::string_view key,
                std::string_view value, MessageFaults& m) {
  const Knob* knob = find_row(kKnobs, key);
  if (knob == nullptr) parse_fail(clause, "unknown message-fault knob");
  if (knob->second != nullptr) {
    const std::size_t colon = value.find(':');
    if (colon == std::string_view::npos) {
      parse_fail(clause, "reorder needs 'probability:max_delay'");
    }
    m.*knob->second = parse_number(clause, value.substr(colon + 1));
    value = value.substr(0, colon);
  }
  m.*knob->value = parse_number(clause, value);
  if (const char* why = message_faults_error(m)) parse_fail(clause, why);
}

}  // namespace

void apply(const FaultPlan::Event& event, FaultInjector& injector) {
  switch (event.kind) {
    case FaultKind::kCrash:
      injector.crash(event.node);
      break;
    case FaultKind::kRecover:
      injector.recover(event.node);
      break;
    case FaultKind::kSlow:
      injector.set_slow(event.node, event.factor);
      break;
    case FaultKind::kClearSlow:
      injector.clear_slow(event.node);
      break;
    case FaultKind::kPartition:
      injector.partition(event.groups);
      break;
    case FaultKind::kHeal:
      injector.heal();
      break;
    case FaultKind::kTornWrite:
      injector.arm_torn_write(event.node);
      break;
    case FaultKind::kFsyncLoss:
      injector.set_fsync_loss(event.node, true);
      break;
    case FaultKind::kClearFsyncLoss:
      injector.set_fsync_loss(event.node, false);
      break;
  }
}

FaultPlan& FaultPlan::add(Event event) {
  const char* error = event_error(event);
  PQRA_REQUIRE(error == nullptr, error);
  events_.push_back(std::move(event));
  return *this;
}

bool FaultPlan::has_key_targets() const {
  return std::any_of(events_.begin(), events_.end(), has_keys);
}

FaultPlan FaultPlan::resolve_keys(
    const std::function<NodeId(KeyId)>& primary) const {
  PQRA_REQUIRE(static_cast<bool>(primary), "resolve_keys needs a resolver");
  FaultPlan resolved = *this;
  for (Event& ev : resolved.events_) {
    if (ev.node_is_key) {
      ev.node = primary(ev.node);
      ev.node_is_key = false;
    }
    for (std::size_t g = 0; g < ev.group_keys.size(); ++g) {
      for (const KeyId key : ev.group_keys[g]) {
        const NodeId node = primary(key);
        std::vector<NodeId>& group = ev.groups[g];
        if (std::find(group.begin(), group.end(), node) == group.end()) {
          group.push_back(node);
        }
      }
    }
    ev.group_keys.clear();
  }
  return resolved;
}

void FaultPlan::check_targets(std::size_t num_nodes) const {
  for (const Event& ev : events_) {
    const auto fail = [&ev](const std::string& why) {
      throw std::logic_error("bad fault-plan clause '" + clause_text(ev) +
                             "': " + why);
    };
    const auto check_node = [&](NodeId n) {
      if (n < num_nodes) return;
      fail("node " + std::to_string(n) + " is out of range (the network has " +
           std::to_string(num_nodes) + " nodes)");
    };
    if (has_keys(ev)) fail("key target is not resolved to a node");
    // Resolution can put one node in two partition groups.
    if (const char* why = event_error(ev)) fail(why);
    const Shape shape = verb_of(ev.kind).shape;
    if (shape == Shape::kTarget || shape == Shape::kTargetFactor) {
      check_node(ev.node);
    }
    for (const std::vector<NodeId>& group : ev.groups) {
      for (const NodeId n : group) check_node(n);
    }
  }
}

FaultPlan& FaultPlan::outage(NodeId node, sim::Time from, sim::Time duration) {
  PQRA_REQUIRE(duration > 0.0, "outage must have positive duration");
  add({.at = from, .kind = FaultKind::kCrash, .node = node});
  return add(
      {.at = from + duration, .kind = FaultKind::kRecover, .node = node});
}

FaultPlan& FaultPlan::with_message_faults(const MessageFaults& faults) {
  const char* error = message_faults_error(faults);
  PQRA_REQUIRE(error == nullptr, error);
  message_faults_ = normalized(faults);
  return *this;
}

FaultPlan FaultPlan::random_churn(std::size_t num_servers, sim::Time horizon,
                                  sim::Time mean_uptime,
                                  sim::Time mean_downtime, util::Rng& rng) {
  PQRA_REQUIRE(horizon > 0.0, "horizon must be positive");
  FaultPlan plan;
  for (std::size_t s = 0; s < num_servers; ++s) {
    sim::Time t = rng.exponential(mean_uptime);
    while (t < horizon) {
      sim::Time down = rng.exponential(mean_downtime);
      plan.outage(static_cast<NodeId>(s), t, down);
      t += down + rng.exponential(mean_uptime);
    }
  }
  return plan;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  MessageFaults message;
  for_each_piece(spec, ';', [&](std::string_view raw) {
    // Whitespace around clauses is allowed: "crash:2@10; drop=0.02".
    const std::size_t first = raw.find_first_not_of(" \t\n");
    if (first == std::string_view::npos) return;
    const std::string_view clause =
        raw.substr(first, raw.find_last_not_of(" \t\n") - first + 1);
    const std::size_t at = clause.rfind('@');
    const std::size_t eq = clause.find('=');
    if (eq != std::string_view::npos && at == std::string_view::npos) {
      parse_knob(clause, clause.substr(0, eq), clause.substr(eq + 1), message);
      return;
    }
    if (at == std::string_view::npos) parse_fail(clause, "missing '@time'");
    parse_timed(clause, clause.substr(0, at), clause.substr(at + 1), plan);
  });
  plan.with_message_faults(message);
  return plan;
}

std::string FaultPlan::serialize() const {
  std::string out;
  auto clause = [&](const std::string& text) {
    if (!out.empty()) out += ';';
    out += text;
  };
  for (const Event& ev : events_) clause(clause_text(ev));
  for (const Knob& knob : kKnobs) {
    if (!(message_faults_.*knob.value > 0.0)) continue;
    std::string text = std::string(knob.name) + "=" +
                       util::format_double(message_faults_.*knob.value);
    if (knob.second != nullptr) {
      text += ":" + util::format_double(message_faults_.*knob.second);
    }
    clause(text);
  }
  return out;
}

FaultPlan FaultPlan::from_parts(std::vector<Event> events,
                                const MessageFaults& faults) {
  FaultPlan plan;
  for (Event& ev : events) plan.add(std::move(ev));
  plan.with_message_faults(faults);
  return plan;
}

void FaultPlan::mutate(std::size_t num_servers, sim::Time horizon,
                       util::Rng& rng, std::size_t num_keys,
                       bool durability) {
  PQRA_REQUIRE(num_servers > 0, "mutation needs at least one server");
  PQRA_REQUIRE(horizon > 0.0, "mutation needs a positive horizon");
  // A target-only event; the edit sets its kind and time.  The key draw is
  // only taken when the caller opened the keyspace (num_keys > 0), so
  // pre-sharding seeds replay the exact same draw sequence.
  const auto random_target = [&] {
    Event ev;
    if (num_keys > 0 && rng.bernoulli(0.3)) {
      ev.node = static_cast<std::uint32_t>(rng.below(num_keys));
      ev.node_is_key = true;
    } else {
      ev.node = static_cast<NodeId>(rng.below(num_servers));
    }
    return ev;
  };
  const auto add_at = [&](Event ev, FaultKind kind, sim::Time at) {
    ev.kind = kind;
    ev.at = at;
    add(std::move(ev));
  };
  const auto random_time = [&] { return rng.uniform01() * horizon; };
  // The durability edit is appended past the legacy range, so legacy calls
  // (durability=false) draw below(8) exactly as before the durability PR.
  std::uint64_t edit = rng.below(durability ? 9 : 8);
  // Structural edits need existing events / enough servers; degrade to the
  // always-possible edits instead of consuming extra draws.
  if ((edit == 5 || edit == 6) && events_.empty()) edit = 1;
  if (edit == 4 && num_servers < 2) edit = 0;
  switch (edit) {
    case 0: {  // crash/recover window
      const sim::Time from = rng.uniform01() * horizon * 0.9;
      const sim::Time duration = std::min(
          std::max(rng.exponential(horizon / 8.0), horizon * 0.01),
          horizon - from);
      const Event target = random_target();
      add_at(target, FaultKind::kCrash, from);
      add_at(target, FaultKind::kRecover, from + duration);
      break;
    }
    case 1: {  // lone crash (the run harness recovers everyone at horizon)
      const Event target = random_target();
      add_at(target, FaultKind::kCrash, random_time());
      break;
    }
    case 2: {
      const Event target = random_target();
      add_at(target, FaultKind::kRecover, random_time());
      break;
    }
    case 3: {  // slow window
      Event target = random_target();
      const sim::Time from = rng.uniform01() * horizon * 0.9;
      target.factor = 1.0 + rng.uniform01() * 9.0;
      const sim::Time until =
          std::min(from + rng.exponential(horizon / 8.0), horizon);
      add_at(target, FaultKind::kSlow, from);
      target.factor = 1.0;
      add_at(target, FaultKind::kClearSlow, until);
      break;
    }
    case 4: {  // partition window over a random split of the servers
      std::vector<NodeId> nodes(num_servers);
      for (std::size_t i = 0; i < num_servers; ++i) {
        nodes[i] = static_cast<NodeId>(i);
      }
      rng.shuffle(nodes);
      const std::size_t cut =
          1 + static_cast<std::size_t>(rng.below(num_servers - 1));
      std::vector<std::vector<NodeId>> groups(2);
      groups[0].assign(nodes.begin(), nodes.begin() + cut);
      groups[1].assign(nodes.begin() + cut, nodes.end());
      const sim::Time from = rng.uniform01() * horizon * 0.9;
      add({.at = from,
           .kind = FaultKind::kPartition,
           .groups = std::move(groups)});
      add({.at = std::min(from + rng.exponential(horizon / 8.0), horizon),
           .kind = FaultKind::kHeal});
      break;
    }
    case 5:  // drop one event
      events_.erase(events_.begin() +
                    static_cast<std::ptrdiff_t>(rng.below(events_.size())));
      break;
    case 6: {  // perturb one event's time
      Event& ev = events_[rng.below(events_.size())];
      ev.at = std::min(std::max(ev.at + (rng.uniform01() - 0.5) * horizon * 0.2,
                                0.0),
                       horizon);
      break;
    }
    case 7:  // jiggle one message-fault knob (bounded: retries stay live)
      switch (rng.below(4)) {
        case 0:
          message_faults_.drop_probability =
              rng.bernoulli(0.25) ? 0.0 : rng.uniform01() * 0.25;
          break;
        case 1:
          message_faults_.duplicate_probability =
              rng.bernoulli(0.25) ? 0.0 : rng.uniform01() * 0.2;
          break;
        case 2:
          message_faults_.extra_delay =
              rng.bernoulli(0.25) ? 0.0 : rng.uniform01() * 2.0;
          break;
        default:
          if (rng.bernoulli(0.25)) {
            message_faults_.reorder_probability = 0.0;
            message_faults_.reorder_delay_max = 0.0;
          } else {
            message_faults_.reorder_probability = rng.uniform01() * 0.3;
            message_faults_.reorder_delay_max = rng.uniform01() * 5.0;
          }
          break;
      }
      message_faults_ = normalized(message_faults_);
      break;
    case 8: {  // durability fault: torn sync or fsync-loss window
      const Event target = random_target();
      if (rng.bernoulli(0.5)) {
        add_at(target, FaultKind::kTornWrite, random_time());
      } else {
        const sim::Time from = rng.uniform01() * horizon * 0.9;
        const sim::Time until =
            std::min(from + rng.exponential(horizon / 8.0), horizon);
        add_at(target, FaultKind::kFsyncLoss, from);
        add_at(target, FaultKind::kClearFsyncLoss, until);
      }
      break;
    }
  }
}

void FaultPlan::install(sim::Simulator& simulator,
                        FaultInjector& injector) const {
  check_targets(injector.num_nodes());
  if (message_faults_.any()) injector.set_message_faults(message_faults_);
  for (const Event& ev : events_) {
    simulator.schedule_at(ev.at, sim::EventTag::kFault,
                          [&injector, ev] { apply(ev, injector); });
  }
}

void FaultPlan::install(sim::Simulator& simulator,
                        SimTransport& transport) const {
  install(simulator, transport.faults());
}

LiveFaultDriver::LiveFaultDriver(const FaultPlan& plan,
                                 ThreadTransport& transport,
                                 double seconds_per_time_unit)
    : transport_(transport) {
  PQRA_REQUIRE(seconds_per_time_unit > 0.0, "time scale must be positive");
  transport.with_faults([&plan](FaultInjector& faults) {
    plan.check_targets(faults.num_nodes());
  });
  thread_ = std::thread([this, plan, seconds_per_time_unit] {
    run(plan, seconds_per_time_unit);
  });
}

LiveFaultDriver::~LiveFaultDriver() { stop(); }

void LiveFaultDriver::stop() {
  {
    std::lock_guard lock(mutex_);
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void LiveFaultDriver::run(FaultPlan plan, double scale) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();

  if (plan.message_faults().any()) {
    MessageFaults scaled = plan.message_faults();
    scaled.extra_delay *= scale;
    scaled.reorder_delay_max *= scale;
    transport_.with_faults([&scaled](FaultInjector& faults) {
      faults.set_message_faults(scaled);
    });
  }

  std::vector<FaultPlan::Event> events = plan.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultPlan::Event& a, const FaultPlan::Event& b) {
                     return a.at < b.at;
                   });
  for (const FaultPlan::Event& ev : events) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(ev.at * scale));
    {
      // pqra-lint: allow(hotpath-blocking) — LiveFaultDriver's own thread
      std::unique_lock lock(mutex_);
      if (cv_.wait_until(lock, due, [this] { return stopped_; })) return;
    }
    transport_.with_faults([&ev](FaultInjector& faults) { apply(ev, faults); });
  }
}

}  // namespace pqra::net
