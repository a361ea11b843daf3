/// \file pqra_explore.cpp
/// VOPR-style schedule-exploration fuzzer (docs/EXPLORATION.md).
///
/// Seed search: every seed expands to a complete ScheduleProfile
/// (tools/explore/profile.hpp) — cluster shape, workload, delay model,
/// mutated fault plan — which runs as a short deterministic simulation whose
/// recorded history is piped through the core/spec checkers and invariant
/// probes.  Violations are shrunk to locally-minimal profiles
/// (tools/explore/shrink.hpp) and emitted as self-contained `--replay`
/// files.
///
///   pqra_explore --seed-range 0:2000            # fixed seed sweep
///   pqra_explore --minutes 10 --jobs 4          # time-boxed nightly run
///   pqra_explore --replay repro-17-R4.txt       # re-run a repro twice
///
/// Exit codes: 0 = clean, 1 = violations found (or replay mismatch),
/// 2 = usage/IO error.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "explore/profile.hpp"
#include "explore/runner.hpp"
#include "explore/shrink.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sim/parallel_runner.hpp"
#include "util/math.hpp"

namespace {

using pqra::explore::RunOutcome;
using pqra::explore::ScheduleProfile;
using pqra::explore::ShrinkResult;

struct CliOptions {
  bool have_range = false;
  std::uint64_t seed_begin = 0;
  std::uint64_t seed_end = 0;
  double minutes = 0.0;
  std::uint64_t start_seed = 0;
  std::size_t jobs = 1;
  std::string repro_dir;
  std::string corpus_dir;
  std::string replay_file;
  std::string metrics_out;
  std::size_t max_violations = 10;
  std::size_t shrink_budget = 500;
  /// Flight-recorder ring capacity for repro dumps (0 = off): the minimal
  /// profile is re-run once with a recorder bound to its transport and the
  /// last N message events land in `<repro>.flightrec.txt`.
  std::size_t flightrec = 0;
  bool no_shrink = false;
  bool quiet = false;
  /// Deterministically push every (non-alg1) from_seed profile into a
  /// multi-key shape before running it — the keyspace sweep used by the
  /// explore_multikey_smoke tier-1 test (docs/SHARDING.md).
  bool force_multikey = false;
  /// Deterministically make every (non-alg1) from_seed profile durable and
  /// add seeded durability faults — the crash-replay-compare sweep used by
  /// the explore_durability_smoke tier-1 test (docs/DURABILITY.md).
  bool force_durable = false;
};

ScheduleProfile profile_for(std::uint64_t seed, const CliOptions& opt) {
  ScheduleProfile p = ScheduleProfile::from_seed(seed);
  if (opt.force_multikey) p = pqra::explore::force_multikey(std::move(p));
  if (opt.force_durable) p = pqra::explore::force_durable(std::move(p));
  return p;
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --seed-range A:B      explore seeds A (inclusive) to B "
         "(exclusive)\n"
      << "  --minutes M           explore for M wall-clock minutes from "
         "--start-seed\n"
      << "  --start-seed S        first seed for --minutes mode (default 0)\n"
      << "  --jobs N              parallel workers (default 1; 0 = all "
         "cores)\n"
      << "  --repro-dir DIR       write shrunk repro files into DIR\n"
      << "  --corpus-dir DIR      write every pre-shrink violating profile "
         "into DIR\n"
      << "  --replay FILE         re-run a repro/profile file twice and "
         "verify determinism\n"
      << "  --metrics-out FILE    write the obs JSON metrics snapshot to "
         "FILE\n"
      << "  --max-violations N    stop after N violations (default 10)\n"
      << "  --shrink-budget N     candidate runs per shrink (default 500)\n"
      << "  --flightrec N         re-run each shrunk repro with an N-record\n"
         "                        flight recorder and dump the message tail\n"
         "                        to <repro>.flightrec.txt (default 0 = "
         "off)\n"
      << "  --no-shrink           report violations without shrinking\n"
      << "  --force-multikey      push every explored profile into a "
         "multi-key\n"
         "                        sharded shape (seed-deterministic)\n"
      << "  --force-durable       run every explored profile with durable\n"
         "                        (WAL + snapshot) replicas and seeded\n"
         "                        durability faults (seed-deterministic)\n"
      << "  --quiet               suppress progress lines\n";
  return 2;
}

/// The whole of \p text as a T (util::parse_whole); nullopt when \p text is
/// missing or is not one whole, finite number.
template <typename T>
std::optional<T> number(const char* text) {
  if (text == nullptr) return std::nullopt;
  return pqra::util::parse_whole<T>(text);
}

/// The usage error for a flag whose value is missing, malformed or out of
/// range, naming the flag.
int bad_value(const char* argv0, const std::string& flag, const char* text) {
  std::cerr << "pqra_explore: bad value '" << (text != nullptr ? text : "")
            << "' for " << flag << "\n";
  return usage(argv0);
}

std::string sanitize(const std::string& rule) {
  std::string s = rule;
  for (char& ch : s) {
    if (ch == ':' || ch == '/' || ch == ' ') ch = '_';
  }
  return s;
}

/// Repro/corpus file: `#` headers (rule, fingerprint, provenance) followed
/// by the profile in ScheduleProfile::serialize() form — self-contained,
/// parseable by --replay.
bool write_repro_file(const std::string& path, const ScheduleProfile& profile,
                      const RunOutcome& outcome, std::uint64_t original_seed,
                      const std::string& provenance) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "pqra_explore: cannot write " << path << "\n";
    return false;
  }
  out << "# pqra_explore repro\n";
  out << "# rule " << outcome.rule << "\n";
  out << "# detail " << outcome.detail << "\n";
  out << "# fingerprint " << outcome.fingerprint << "\n";
  out << "# events " << outcome.events_processed << "\n";
  out << "# ops " << outcome.ops_checked << "\n";
  out << "# original-seed " << original_seed << "\n";
  if (!provenance.empty()) out << "# " << provenance << "\n";
  out << profile.serialize();
  return out.good();
}

/// Re-runs \p profile with a bound flight recorder and dumps the ring next
/// to the repro.  The recorder is a pure observer, so the re-run must land
/// on the repro's fingerprint — a divergence here is itself a bug, and the
/// dump says so instead of lying about what schedule it recorded.
bool write_flightrec_file(const std::string& path,
                          const ScheduleProfile& profile,
                          const RunOutcome& expected, std::size_t capacity) {
  pqra::obs::FlightRecorder recorder(capacity);
  const RunOutcome rerun = pqra::explore::run_profile(profile, &recorder);
  std::ofstream out(path);
  if (!out) {
    std::cerr << "pqra_explore: cannot write " << path << "\n";
    return false;
  }
  out << "# pqra_explore flight recorder dump\n";
  out << "# rule " << expected.rule << "\n";
  out << "# fingerprint " << rerun.fingerprint << "\n";
  if (rerun.fingerprint != expected.fingerprint ||
      rerun.events_processed != expected.events_processed) {
    out << "# WARNING: recorder re-run diverged from the repro run "
        << "(expected fingerprint " << expected.fingerprint << ", events "
        << expected.events_processed << ")\n";
  }
  recorder.dump(out);
  return out.good();
}

int replay(const CliOptions& opt) {
  std::ifstream in(opt.replay_file);
  if (!in) {
    std::cerr << "pqra_explore: cannot read " << opt.replay_file << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // Optional "# rule X" header pins which rule the file reproduces.
  std::string expected_rule;
  {
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      const std::string prefix = "# rule ";
      if (line.rfind(prefix, 0) == 0) {
        expected_rule = line.substr(prefix.size());
        break;
      }
    }
  }

  ScheduleProfile profile;
  try {
    profile = ScheduleProfile::parse(text);
  } catch (const std::exception& e) {
    std::cerr << "pqra_explore: bad replay file: " << e.what() << "\n";
    return 2;
  }

  const RunOutcome first = pqra::explore::run_profile(profile);
  const RunOutcome second = pqra::explore::run_profile(profile);

  std::cout << "replay " << opt.replay_file << "\n"
            << "  run 1: rule=" << (first.violation ? first.rule : "none")
            << " fingerprint=" << first.fingerprint
            << " events=" << first.events_processed
            << " ops=" << first.ops_checked << "\n"
            << "  run 2: rule=" << (second.violation ? second.rule : "none")
            << " fingerprint=" << second.fingerprint
            << " events=" << second.events_processed
            << " ops=" << second.ops_checked << "\n";
  if (first.violation) std::cout << "  detail: " << first.detail << "\n";

  bool ok = true;
  if (first.fingerprint != second.fingerprint ||
      first.events_processed != second.events_processed ||
      first.violation != second.violation || first.rule != second.rule ||
      first.ops_checked != second.ops_checked) {
    std::cout << "REPLAY DIVERGED: the two runs did not execute the same "
                 "schedule\n";
    ok = false;
  }
  if (!expected_rule.empty() &&
      (!first.violation || first.rule != expected_rule)) {
    std::cout << "REPLAY MISMATCH: expected rule " << expected_rule
              << ", got " << (first.violation ? first.rule : "none") << "\n";
    ok = false;
  }
  if (ok) std::cout << "replay deterministic\n";
  return ok ? 0 : 1;
}

int explore(const CliOptions& opt) {
  namespace names = pqra::obs::names;
  pqra::obs::Registry registry;
  pqra::obs::Counter& runs_total =
      registry.counter(names::kExploreRuns, "Schedules explored");
  pqra::obs::Counter& violations_total =
      registry.counter(names::kExploreViolations, "Violating schedules found");
  pqra::obs::Counter& ops_total = registry.counter(
      names::kExploreOpsChecked, "Operations piped through the spec checkers");
  pqra::obs::Counter& events_total = registry.counter(
      names::kExploreEvents, "DES events executed across explored schedules");
  pqra::obs::Counter& shrink_attempts = registry.counter(
      names::kExploreShrinkAttempts, "Shrink candidate runs executed");
  pqra::obs::Counter& shrink_accepted = registry.counter(
      names::kExploreShrinkAccepted, "Shrink candidates accepted");
  pqra::obs::Gauge& last_fingerprint = registry.gauge(
      names::kExploreLastFingerprint, "Fingerprint of the last explored run");

  pqra::sim::ParallelRunner pool(opt.jobs);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opt.minutes * 60.0));

  std::uint64_t next_seed = opt.have_range ? opt.seed_begin : opt.start_seed;
  std::size_t violations = 0;
  std::vector<std::string> repro_paths;
  bool done = false;

  while (!done) {
    if (opt.have_range && next_seed >= opt.seed_end) break;
    if (!opt.have_range &&
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::size_t batch = std::max<std::size_t>(16, pool.jobs() * 8);
    if (opt.have_range) {
      batch = std::min<std::size_t>(batch, opt.seed_end - next_seed);
    }
    const std::uint64_t base = next_seed;
    const std::vector<RunOutcome> outcomes =
        pool.map<RunOutcome>(batch, [base, &opt](std::size_t i) {
          return pqra::explore::run_profile(profile_for(base + i, opt));
        });
    next_seed += batch;

    // Results merge in seed order, so every artifact and log line is
    // byte-identical across --jobs values (ParallelRunner's contract).
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const RunOutcome& out = outcomes[i];
      const std::uint64_t seed = base + i;
      runs_total.inc();
      ops_total.inc(out.ops_checked);
      events_total.inc(out.events_processed);
      last_fingerprint.set(static_cast<double>(out.fingerprint));
      if (!out.violation) continue;

      ++violations;
      violations_total.inc();
      const ScheduleProfile profile = profile_for(seed, opt);
      std::cerr << "violation: seed=" << seed << " rule=" << out.rule
                << " fingerprint=" << out.fingerprint << "\n  " << out.detail
                << "\n";
      if (!opt.corpus_dir.empty()) {
        write_repro_file(opt.corpus_dir + "/corpus-" + std::to_string(seed) +
                             "-" + sanitize(out.rule) + ".txt",
                         profile, out, seed, "corpus (pre-shrink)");
      }
      ScheduleProfile minimal = profile;
      RunOutcome minimal_outcome = out;
      if (!opt.no_shrink) {
        const ShrinkResult shrunk =
            pqra::explore::shrink(profile, out, opt.shrink_budget);
        shrink_attempts.inc(shrunk.stats.attempts);
        shrink_accepted.inc(shrunk.stats.accepted);
        std::cerr << "  shrunk: cost " << profile.cost() << " -> "
                  << shrunk.profile.cost() << " (" << shrunk.stats.attempts
                  << " candidate runs, " << shrunk.stats.accepted
                  << " accepted)\n";
        minimal = shrunk.profile;
        minimal_outcome = shrunk.outcome;
      }
      if (!opt.repro_dir.empty()) {
        std::ostringstream provenance;
        provenance << "original-cost " << profile.cost() << " shrunk-cost "
                   << minimal.cost();
        const std::string path = opt.repro_dir + "/repro-" +
                                 std::to_string(seed) + "-" +
                                 sanitize(minimal_outcome.rule) + ".txt";
        if (write_repro_file(path, minimal, minimal_outcome, seed,
                             provenance.str())) {
          repro_paths.push_back(path);
          std::cerr << "  repro: " << path << "\n";
          if (opt.flightrec > 0) {
            std::string dump = path;
            const std::string suffix = ".txt";
            if (dump.size() >= suffix.size() &&
                dump.compare(dump.size() - suffix.size(), suffix.size(),
                             suffix) == 0) {
              dump.resize(dump.size() - suffix.size());
            }
            dump += ".flightrec.txt";
            if (write_flightrec_file(dump, minimal, minimal_outcome,
                                     opt.flightrec)) {
              std::cerr << "  flightrec: " << dump << "\n";
            }
          }
        }
      }
      if (violations >= opt.max_violations) {
        std::cerr << "stopping: reached --max-violations="
                  << opt.max_violations << "\n";
        done = true;
        break;
      }
    }
    if (!opt.quiet) {
      std::cerr << "explored " << runs_total.value() << " schedules, "
                << violations << " violation(s)\n";
    }
  }

  if (!opt.metrics_out.empty()) {
    std::ofstream mout(opt.metrics_out);
    if (!mout) {
      std::cerr << "pqra_explore: cannot write " << opt.metrics_out << "\n";
      return 2;
    }
    pqra::obs::write_json(registry, mout);
  }
  std::cout << "pqra_explore: " << runs_total.value() << " schedules, "
            << violations << " violation(s)";
  if (!repro_paths.empty()) {
    std::cout << ", " << repro_paths.size() << " repro file(s)";
  }
  std::cout << "\n";
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed-range") {
      const char* v = next();
      const std::string_view range = v != nullptr ? v : "";
      const std::size_t colon = range.find(':');
      using pqra::util::parse_whole;
      const auto begin = parse_whole<std::uint64_t>(range.substr(0, colon));
      const auto end =
          colon == std::string_view::npos
              ? std::nullopt
              : parse_whole<std::uint64_t>(range.substr(colon + 1));
      if (!begin || !end || *end <= *begin) return bad_value(argv[0], arg, v);
      opt.seed_begin = *begin;
      opt.seed_end = *end;
      opt.have_range = true;
    } else if (arg == "--minutes") {
      const char* v = next();
      const auto minutes = number<double>(v);
      if (!minutes || *minutes <= 0.0) return bad_value(argv[0], arg, v);
      opt.minutes = *minutes;
    } else if (arg == "--start-seed") {
      const char* v = next();
      const auto seed = number<std::uint64_t>(v);
      if (!seed) return bad_value(argv[0], arg, v);
      opt.start_seed = *seed;
    } else if (arg == "--jobs") {
      const char* v = next();
      const auto jobs = number<std::size_t>(v);
      if (!jobs) return bad_value(argv[0], arg, v);
      opt.jobs = *jobs;
    } else if (arg == "--repro-dir") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.repro_dir = v;
    } else if (arg == "--corpus-dir") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.corpus_dir = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.replay_file = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.metrics_out = v;
    } else if (arg == "--max-violations") {
      const char* v = next();
      const auto n = number<std::size_t>(v);
      if (!n || *n == 0) return bad_value(argv[0], arg, v);
      opt.max_violations = *n;
    } else if (arg == "--shrink-budget") {
      const char* v = next();
      const auto n = number<std::size_t>(v);
      if (!n) return bad_value(argv[0], arg, v);
      opt.shrink_budget = *n;
    } else if (arg == "--flightrec") {
      const char* v = next();
      const auto n = number<std::size_t>(v);
      if (!n || *n == 0) return bad_value(argv[0], arg, v);
      opt.flightrec = *n;
    } else if (arg == "--no-shrink") {
      opt.no_shrink = true;
    } else if (arg == "--force-multikey") {
      opt.force_multikey = true;
    } else if (arg == "--force-durable") {
      opt.force_durable = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (!opt.replay_file.empty()) return replay(opt);
  if (!opt.have_range && opt.minutes <= 0.0) {
    return usage(argv[0]);
  }
  return explore(opt);
}
