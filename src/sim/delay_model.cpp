#include "sim/delay_model.hpp"

#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"
#include "util/math.hpp"

namespace pqra::sim {

namespace {

class ConstantDelay final : public DelayModel {
 public:
  explicit ConstantDelay(Time delay) : delay_(delay) {
    PQRA_REQUIRE(delay >= 0.0, "delay must be non-negative");
  }

  Time sample(util::Rng&) override { return delay_; }

  std::string describe() const override {
    std::ostringstream os;
    os << "constant(" << delay_ << ")";
    return os.str();
  }

 private:
  Time delay_;
};

class ExponentialDelay final : public DelayModel {
 public:
  explicit ExponentialDelay(Time mean) : mean_(mean) {
    PQRA_REQUIRE(mean > 0.0, "mean must be positive");
  }

  Time sample(util::Rng& rng) override { return rng.exponential(mean_); }

  std::string describe() const override {
    std::ostringstream os;
    os << "exponential(mean=" << mean_ << ")";
    return os.str();
  }

 private:
  Time mean_;
};

class UniformDelay final : public DelayModel {
 public:
  UniformDelay(Time lo, Time hi) : lo_(lo), hi_(hi) {
    PQRA_REQUIRE(lo >= 0.0 && hi >= lo, "need 0 <= lo <= hi");
  }

  Time sample(util::Rng& rng) override {
    return lo_ + (hi_ - lo_) * rng.uniform01();
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "uniform(" << lo_ << ", " << hi_ << ")";
    return os.str();
  }

 private:
  Time lo_;
  Time hi_;
};

class LognormalDelay final : public DelayModel {
 public:
  LognormalDelay(Time min_delay, double mu, double sigma)
      : min_(min_delay), mu_(mu), sigma_(sigma) {
    PQRA_REQUIRE(min_delay >= 0.0, "minimum delay must be non-negative");
    PQRA_REQUIRE(sigma >= 0.0, "sigma must be non-negative");
  }

  Time sample(util::Rng& rng) override {
    // Box–Muller; one normal draw per sample is fine here.
    double u1;
    do {
      u1 = rng.uniform01();
    } while (u1 <= 0.0);
    double u2 = rng.uniform01();
    double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    return min_ + std::exp(mu_ + sigma_ * z);
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "lognormal(min=" << min_ << ", mu=" << mu_ << ", sigma=" << sigma_
       << ")";
    return os.str();
  }

 private:
  Time min_;
  double mu_;
  double sigma_;
};

}  // namespace

std::unique_ptr<DelayModel> make_constant_delay(Time delay) {
  // pqra-lint: allow(hotpath-alloc) — construction-time factory
  return std::make_unique<ConstantDelay>(delay);
}

std::unique_ptr<DelayModel> make_exponential_delay(Time mean) {
  // pqra-lint: allow(hotpath-alloc) — construction-time factory
  return std::make_unique<ExponentialDelay>(mean);
}

std::unique_ptr<DelayModel> make_uniform_delay(Time lo, Time hi) {
  // pqra-lint: allow(hotpath-alloc) — construction-time factory
  return std::make_unique<UniformDelay>(lo, hi);
}

std::unique_ptr<DelayModel> make_lognormal_delay(Time min_delay, double mu,
                                                 double sigma) {
  // pqra-lint: allow(hotpath-alloc) — construction-time factory
  return std::make_unique<LognormalDelay>(min_delay, mu, sigma);
}

std::unique_ptr<DelayModel> DelaySpec::make() const {
  switch (kind) {
    case Kind::kConstant:
      return make_constant_delay(a);
    case Kind::kExponential:
      return make_exponential_delay(a);
    case Kind::kUniform:
      return make_uniform_delay(a, b);
    case Kind::kLognormal:
      return make_lognormal_delay(a, b, c);
  }
  PQRA_REQUIRE(false, "invalid DelaySpec kind");
  return nullptr;
}

std::string DelaySpec::serialize() const {
  switch (kind) {
    case Kind::kConstant:
      return "constant:" + util::format_double(a);
    case Kind::kExponential:
      return "exp:" + util::format_double(a);
    case Kind::kUniform:
      return "uniform:" + util::format_double(a) + ":" +
             util::format_double(b);
    case Kind::kLognormal:
      return "lognormal:" + util::format_double(a) + ":" +
             util::format_double(b) + ":" + util::format_double(c);
  }
  PQRA_REQUIRE(false, "invalid DelaySpec kind");
  return {};
}

DelaySpec DelaySpec::parse(const std::string& text) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ':')) parts.push_back(item);
  const auto fail = [&](const char* why) {
    throw std::logic_error("bad delay spec '" + text + "': " + why);
  };
  const auto number = [&](std::size_t i) {
    const std::optional<double> v = util::parse_whole<double>(parts[i]);
    if (!v) fail("expected a finite number");
    return *v;
  };
  const auto arity = [&](std::size_t n) {
    if (parts.size() != n + 1) fail("wrong parameter count");
  };
  if (parts.empty()) throw std::logic_error("empty delay spec");
  DelaySpec spec;
  bool in_range = false;
  if (parts[0] == "constant") {
    arity(1);
    spec = {Kind::kConstant, number(1)};
    in_range = spec.a >= 0.0;
  } else if (parts[0] == "exp") {
    arity(1);
    spec = {Kind::kExponential, number(1)};
    in_range = spec.a > 0.0;
  } else if (parts[0] == "uniform") {
    arity(2);
    spec = {Kind::kUniform, number(1), number(2)};
    in_range = spec.a >= 0.0 && spec.b >= spec.a;
  } else if (parts[0] == "lognormal") {
    arity(3);
    spec = {Kind::kLognormal, number(1), number(2), number(3)};
    in_range = spec.a >= 0.0 && spec.c >= 0.0;
  } else {
    fail("unknown kind");
  }
  // The model constructors' own ranges, so a bad spec fails here and not
  // in the middle of a run.
  if (!in_range) fail("parameter out of range");
  return spec;
}

}  // namespace pqra::sim
