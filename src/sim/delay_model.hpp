#pragma once

/// \file delay_model.hpp
/// Message-delay distributions for the simulated network.
///
/// The paper's synchronous executions use constant delays and its
/// asynchronous executions use exponentially distributed delays (§7); both
/// are provided, plus uniform and shifted-lognormal variants for wider
/// experimentation.

#include <memory>
#include <string>

#include "util/rng.hpp"

namespace pqra::sim {

/// Simulated time (abstract units; one constant message delay = 1.0).
using Time = double;

/// Samples one network delay per message.
class DelayModel {
 public:
  virtual ~DelayModel() = default;

  /// Returns a non-negative delay.
  virtual Time sample(util::Rng& rng) = 0;
};

/// Every message takes exactly \p delay — the synchronous model.
std::unique_ptr<DelayModel> make_constant_delay(Time delay = 1.0);

/// Exponentially distributed delays with the given mean — the asynchronous
/// model of §7.
std::unique_ptr<DelayModel> make_exponential_delay(Time mean = 1.0);

/// Uniform delays on [lo, hi].
std::unique_ptr<DelayModel> make_uniform_delay(Time lo, Time hi);

/// min_delay + Lognormal(mu, sigma) — heavy-tailed delays for stress tests.
std::unique_ptr<DelayModel> make_lognormal_delay(Time min_delay, double mu,
                                                 double sigma);

/// Value-type description of a delay model, so a schedule can be mutated,
/// serialized into a replay file and rebuilt bit-identically (the
/// pqra_explore fuzzer's delay-model mutation dimension).  Grammar, using
/// util::format_double for numbers:
///
///   constant:D   exp:MEAN   uniform:LO:HI   lognormal:MIN:MU:SIGMA
struct DelaySpec {
  enum class Kind : std::uint8_t {
    kConstant,
    kExponential,
    kUniform,
    kLognormal,
  };

  Kind kind = Kind::kConstant;
  /// Parameter meaning by kind: constant {a=delay}; exponential {a=mean};
  /// uniform {a=lo, b=hi}; lognormal {a=min, b=mu, c=sigma}.
  double a = 1.0;
  double b = 0.0;
  double c = 0.0;

  /// Builds the model (same factories as above; validates parameters).
  std::unique_ptr<DelayModel> make() const;

  std::string serialize() const;

  /// Parses the grammar above; throws std::logic_error on bad input.  Each
  /// number is read whole (util::parse_whole) and must be finite and inside
  /// its model's range: D >= 0, MEAN > 0, 0 <= LO <= HI, MIN >= 0 and
  /// SIGMA >= 0.
  static DelaySpec parse(const std::string& text);

  friend bool operator==(const DelaySpec& x, const DelaySpec& y) {
    return x.kind == y.kind && x.a == y.a && x.b == y.b && x.c == y.c;
  }
  friend bool operator!=(const DelaySpec& x, const DelaySpec& y) {
    return !(x == y);
  }
};

}  // namespace pqra::sim
