#include "apps/approx_agreement.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/codec.hpp"

namespace pqra::apps {

ApproxAgreementOperator::ApproxAgreementOperator(std::vector<double> inputs,
                                                 double epsilon)
    : inputs_(std::move(inputs)), epsilon_(epsilon) {
  PQRA_REQUIRE(!inputs_.empty(), "need at least one process input");
  PQRA_REQUIRE(epsilon > 0.0, "epsilon must be positive");
  const double lo = *std::min_element(inputs_.begin(), inputs_.end());
  const double hi = *std::max_element(inputs_.begin(), inputs_.end());
  center_ = util::encode((lo + hi) / 2.0);
  initial_encoded_.reserve(inputs_.size());
  for (double v : inputs_) initial_encoded_.push_back(util::encode(v));
}

iter::Value ApproxAgreementOperator::initial(std::size_t i) const {
  PQRA_REQUIRE(i < inputs_.size(), "component index out of range");
  return initial_encoded_[i];
}

iter::Value ApproxAgreementOperator::apply(
    std::size_t i, const std::vector<iter::Value>& x) const {
  PQRA_REQUIRE(i < inputs_.size() && x.size() == inputs_.size(),
               "bad apply arguments");
  double lo = util::decode<double>(x[0]);
  double hi = lo;
  for (const iter::Value& v : x) {
    double d = util::decode<double>(v);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  return util::encode((lo + hi) / 2.0);
}

bool ApproxAgreementOperator::component_equal(std::size_t,
                                              const iter::Value& a,
                                              const iter::Value& b) const {
  return std::abs(util::decode<double>(a) - util::decode<double>(b)) <=
         epsilon_;
}

const iter::Value& ApproxAgreementOperator::fixed_point(std::size_t) const {
  return center_;
}

bool ApproxAgreementOperator::locally_converged(
    std::size_t, const iter::Value& own,
    const std::vector<iter::Value>& view) const {
  double lo = util::decode<double>(own);
  double hi = lo;
  for (const iter::Value& v : view) {
    double d = util::decode<double>(v);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  return hi - lo <= epsilon_;
}

}  // namespace pqra::apps
