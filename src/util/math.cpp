#include "util/math.hpp"

#include <charconv>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace pqra::util {

std::string format_double(double x) {
  if (std::isnan(x)) return "nan";
  if (std::isinf(x)) return x > 0 ? "inf" : "-inf";
  char buf[32];  // the longest shortest form, "-2.2250738585072014e-308", is 24
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, static_cast<std::size_t>(r.ptr - buf));
}

double log_choose(std::uint64_t n, std::uint64_t k) {
  if (k > n) return -std::numeric_limits<double>::infinity();
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

double choose(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0.0;
  if (k > n - k) k = n - k;
  double result = 1.0;
  for (std::uint64_t i = 0; i < k; ++i) {
    result *= static_cast<double>(n - i);
    result /= static_cast<double>(i + 1);
  }
  return result;
}

double quorum_nonoverlap_probability(std::uint64_t n, std::uint64_t k) {
  PQRA_REQUIRE(k >= 1 && k <= n, "quorum size must be in [1, n]");
  if (2 * k > n) return 0.0;
  // C(n-k, k) / C(n, k) = prod_{i=0}^{k-1} (n - k - i) / (n - i).
  double p = 1.0;
  for (std::uint64_t i = 0; i < k; ++i) {
    p *= static_cast<double>(n - k - i) / static_cast<double>(n - i);
  }
  return p;
}

double quorum_overlap_probability(std::uint64_t n, std::uint64_t k) {
  return 1.0 - quorum_nonoverlap_probability(n, k);
}

double asymmetric_nonoverlap_probability(std::uint64_t n, std::uint64_t k1,
                                         std::uint64_t k2) {
  PQRA_REQUIRE(k1 >= 1 && k1 <= n, "fixed subset size must be in [1, n]");
  PQRA_REQUIRE(k2 >= 1 && k2 <= n, "chosen subset size must be in [1, n]");
  if (k1 + k2 > n) return 0.0;
  // C(n-k1, k2) / C(n, k2) = prod_{i=0}^{k2-1} (n - k1 - i) / (n - i).
  double p = 1.0;
  for (std::uint64_t i = 0; i < k2; ++i) {
    p *= static_cast<double>(n - k1 - i) / static_cast<double>(n - i);
  }
  return p;
}

double nonoverlap_upper_bound(std::uint64_t n, std::uint64_t k) {
  PQRA_REQUIRE(k >= 1 && k <= n, "quorum size must be in [1, n]");
  return std::pow(static_cast<double>(n - k) / static_cast<double>(n),
                  static_cast<double>(k));
}

double corollary7_rounds_per_pseudocycle(std::uint64_t n, std::uint64_t k) {
  double bound = nonoverlap_upper_bound(n, k);
  return 1.0 / (1.0 - bound);
}

double r3_survival_bound(std::uint64_t n, std::uint64_t k, std::uint64_t l) {
  double b = static_cast<double>(k) *
             std::pow(static_cast<double>(n - k) / static_cast<double>(n),
                      static_cast<double>(l));
  return b > 1.0 ? 1.0 : b;
}

double expected_reads_until_overlap(std::uint64_t n, std::uint64_t k) {
  return 1.0 / quorum_overlap_probability(n, k);
}

double hypergeometric_pmf(std::uint64_t population, std::uint64_t marked,
                          std::uint64_t draws, std::uint64_t i) {
  PQRA_REQUIRE(marked <= population && draws <= population,
               "invalid hypergeometric parameters");
  if (i > draws || i > marked) return 0.0;
  if (draws - i > population - marked) return 0.0;
  double log_p = log_choose(marked, i) +
                 log_choose(population - marked, draws - i) -
                 log_choose(population, draws);
  return std::exp(log_p);
}

double hypergeometric_cdf(std::uint64_t population, std::uint64_t marked,
                          std::uint64_t draws, std::uint64_t i) {
  double acc = 0.0;
  for (std::uint64_t j = 0; j <= i; ++j) {
    acc += hypergeometric_pmf(population, marked, draws, j);
  }
  return acc > 1.0 ? 1.0 : acc;
}

double masking_error_probability(std::uint64_t n, std::uint64_t k,
                                 std::uint64_t b) {
  PQRA_REQUIRE(k >= 1 && k <= n, "quorum size must be in [1, n]");
  return hypergeometric_cdf(n, k, k, 2 * b);
}

bool is_prime(std::uint64_t v) {
  if (v < 2) return false;
  for (std::uint64_t d = 2; d * d <= v; ++d) {
    if (v % d == 0) return false;
  }
  return true;
}

std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  if (a >= kPathInf || b >= kPathInf) return kPathInf;
  std::int64_t s = a + b;
  return s >= kPathInf ? kPathInf : s;
}

}  // namespace pqra::util
