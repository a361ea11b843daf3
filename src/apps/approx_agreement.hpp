#pragma once

/// \file approx_agreement.hpp
/// Approximate agreement over random registers — the application §8
/// explicitly proposes for this model ("We consider the approximate
/// agreement problem to be a good application").
///
/// Each of the m processes starts with a real input; component i is process
/// i's current proposal.  F_i replaces the proposal with the midpoint
/// (min + max)/2 of the full view.  Two classical properties are the point
/// of the exercise:
///
///   validity     — every proposal stays inside [min, max] of the inputs
///                  (an invariant of midpoint updates; tested),
///   epsilon-agreement — eventually all proposals are within epsilon.
///
/// Termination uses locally_converged: a process is content when the whole
/// view it just used spans at most epsilon.  There is no predetermined
/// fixed point (the consensus value depends on the schedule), so the
/// fixed_point() oracle reports the center of the validity interval for
/// reference only — the default §7 stopping rule is overridden.

#include <vector>

#include "iter/aco.hpp"

namespace pqra::apps {

class ApproxAgreementOperator final : public iter::AcoOperator {
 public:
  ApproxAgreementOperator(std::vector<double> inputs, double epsilon);

  std::size_t num_components() const override { return inputs_.size(); }
  iter::Value initial(std::size_t i) const override;
  iter::Value apply(std::size_t i,
                    const std::vector<iter::Value>& x) const override;
  bool component_equal(std::size_t i, const iter::Value& a,
                       const iter::Value& b) const override;
  /// Center of [min inputs, max inputs]; reference only (see file comment).
  const iter::Value& fixed_point(std::size_t i) const override;
  bool locally_converged(std::size_t i, const iter::Value& own,
                         const std::vector<iter::Value>& view) const override;
  std::string name() const override { return "approximate-agreement"; }

 private:
  std::vector<double> inputs_;
  double epsilon_;
  iter::Value center_;
  std::vector<iter::Value> initial_encoded_;
};

}  // namespace pqra::apps
