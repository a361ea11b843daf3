#pragma once

/// \file linear.hpp
/// Asynchronous Jacobi iteration for strictly diagonally dominant linear
/// systems — the "systems of linear equations" application of §2 (via
/// Bertsekas–Tsitsiklis, the paper's reference [6]).
///
/// x_i <- (b_i - sum_{j != i} a_ij x_j) / a_ii is a max-norm contraction
/// with factor alpha = max_i sum_{j != i} |a_ij| / |a_ii| < 1, so it is an
/// ACO with nested boxes D(K) of radius alpha^K; asynchronous iteration
/// converges from any starting point.  The fixed-point oracle solves the
/// system directly by Gaussian elimination with partial pivoting, and
/// component equality is |x - x*| <= tolerance.

#include <vector>

#include "iter/aco.hpp"
#include "util/rng.hpp"

namespace pqra::apps {

/// Dense linear system A x = b.
struct LinearSystem {
  std::vector<std::vector<double>> a;
  std::vector<double> b;

  std::size_t size() const { return b.size(); }

  /// max_i sum_{j != i} |a_ij| / |a_ii| — must be < 1 for Jacobi.
  double contraction_factor() const;
};

/// Random strictly diagonally dominant system: off-diagonals uniform in
/// [-1, 1], diagonal = (row L1 norm) / dominance with \p dominance < 1,
/// b uniform in [-10, 10].  contraction_factor() == dominance.
LinearSystem make_dominant_system(std::size_t n, double dominance,
                                  util::Rng& rng);

/// Direct solve by Gaussian elimination with partial pivoting.
std::vector<double> solve_direct(const LinearSystem& system);

class JacobiOperator final : public iter::AcoOperator {
 public:
  /// Converged when every |x_i - x*_i| <= tolerance.
  JacobiOperator(LinearSystem system, double tolerance);

  std::size_t num_components() const override { return system_.size(); }
  iter::Value initial(std::size_t i) const override;
  iter::Value apply(std::size_t i,
                    const std::vector<iter::Value>& x) const override;
  bool component_equal(std::size_t i, const iter::Value& a,
                       const iter::Value& b) const override;
  const iter::Value& fixed_point(std::size_t i) const override;
  /// D(K)_i = { x : |x - x*_i| <= alpha^K * r0 } with alpha the contraction
  /// factor and r0 the initial max-norm error — the textbook nested boxes of
  /// a max-norm contraction (Bertsekas–Tsitsiklis).
  bool box_contains(std::size_t K, std::size_t i,
                    const iter::Value& v) const override;
  bool has_box_oracle() const override { return true; }
  std::string name() const override { return "jacobi"; }

  const std::vector<double>& solution() const { return solution_; }

 private:
  LinearSystem system_;
  double tolerance_;
  std::vector<double> solution_;
  std::vector<iter::Value> solution_encoded_;
  iter::Value initial_encoded_;
  double alpha_ = 0.0;           ///< contraction factor
  double initial_error_ = 0.0;   ///< r0 = max_i |0 - x*_i|
};

}  // namespace pqra::apps
