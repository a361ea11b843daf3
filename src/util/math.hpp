#pragma once

/// \file math.hpp
/// The combinatorial and probability formulas the paper relies on.
///
/// Everything is computed in a numerically safe way: ratios of binomial
/// coefficients are evaluated as telescoping products of factors < 1, never
/// by forming the (astronomically large) coefficients themselves.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace pqra::util {

/// Shortest round-trip decimal rendering of a finite double (std::to_chars:
/// "1", "10", "0.25", "1e-09"), "inf"/"-inf"/"nan" otherwise.  This is the
/// canonical number format of every serialized schedule artifact
/// (sim::DelaySpec, net::FaultPlan::serialize, the pqra_explore replay
/// files): parse_whole reads it back to the identical bits, so
/// serialize→parse→serialize is byte-stable.
std::string format_double(double x);

/// The whole of \p text as a T, or nullopt: std::from_chars with no
/// leading space, no trailing text, no sign on an unsigned type, no
/// overflow and no hex; a floating-point T must also be finite.  The number
/// reader of the command lines (experiment_cli, pqra_explore), the bench
/// knobs and the schedule text formats (FaultPlan, DelaySpec, replay
/// profiles); the JSONL formats keep obs::JsonlReader's line-numbered one.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// ln C(n, k).  Returns -inf when k > n (an empty selection set).
double log_choose(std::uint64_t n, std::uint64_t k);

/// C(n, k) as a double (exact for small arguments, may overflow to inf for
/// very large ones — callers wanting ratios should use the *_probability
/// helpers below instead).
double choose(std::uint64_t n, std::uint64_t k);

/// Probability that two independently and uniformly chosen k-subsets of an
/// n-set are disjoint: C(n-k, k) / C(n, k).  This is the per-read "miss"
/// probability of the probabilistic quorum system (Theorem 4).
/// Returns 0 when 2k > n (every pair of quorums must intersect — the system
/// degenerates to a strict one).
double quorum_nonoverlap_probability(std::uint64_t n, std::uint64_t k);

/// Theorem 4's q: probability that a uniformly random read quorum intersects
/// a fixed write quorum, q = 1 - C(n-k,k)/C(n,k).
double quorum_overlap_probability(std::uint64_t n, std::uint64_t k);

/// Asymmetric variant: probability that a uniformly chosen k2-subset misses
/// a fixed k1-subset of an n-set, C(n-k1, k2) / C(n, k2).  Used for the
/// degraded-mode staleness bound where a retrying client settles for an
/// access set smaller than the configured quorum (docs/FAULTS.md).
double asymmetric_nonoverlap_probability(std::uint64_t n, std::uint64_t k1,
                                         std::uint64_t k2);

/// The upper bound on the nonoverlap probability used in Corollary 7:
/// ((n-k)/n)^k, which dominates C(n-k,k)/C(n,k) (Prop. 3.2 of Malkhi et al.).
double nonoverlap_upper_bound(std::uint64_t n, std::uint64_t k);

/// Corollary 7: upper bound on the expected number of rounds per pseudocycle
/// of the monotone probabilistic quorum algorithm, 1 / (1 - ((n-k)/n)^k).
double corollary7_rounds_per_pseudocycle(std::uint64_t n, std::uint64_t k);

/// Theorem 1's decay bound: probability that at least one replica of a
/// write's quorum still holds that write after l subsequent writes is at
/// most k * ((n-k)/n)^l.  (Clamped to [0, 1].)
double r3_survival_bound(std::uint64_t n, std::uint64_t k, std::uint64_t l);

/// Expected value 1/q of the geometric distribution from [R5].
double expected_reads_until_overlap(std::uint64_t n, std::uint64_t k);

/// Hypergeometric pmf: drawing \p draws from a population of \p population
/// containing \p marked marked elements, P[exactly i marked drawn].
double hypergeometric_pmf(std::uint64_t population, std::uint64_t marked,
                          std::uint64_t draws, std::uint64_t i);

/// P[at most i marked drawn] (hypergeometric CDF).
double hypergeometric_cdf(std::uint64_t population, std::uint64_t marked,
                          std::uint64_t draws, std::uint64_t i);

/// Masking-quorum error probability (Malkhi–Reiter–Wright): with b Byzantine
/// servers, a read is safe when its quorum intersects the write's quorum in
/// at least 2b+1 servers (>= b+1 correct vouchers beat <= b liars).  Both
/// quorums are uniform k-subsets of n, so |R ∩ W| is hypergeometric and the
/// error probability is P[|R ∩ W| <= 2b].
double masking_error_probability(std::uint64_t n, std::uint64_t k,
                                 std::uint64_t b);

/// True if \p v is prime (trial division; intended for FPP orders, so small).
bool is_prime(std::uint64_t v);

/// Saturating addition for shortest-path arithmetic: a + b, clamped so that
/// "infinity" (kPathInf) absorbs.
std::int64_t saturating_add(std::int64_t a, std::int64_t b);

/// Sentinel used as +infinity by the graph/APSP code.
inline constexpr std::int64_t kPathInf = (1LL << 62);

}  // namespace pqra::util
