/**
 * @file
 * Seeded input generators for the benchmark workloads: structurally
 * novel candidate programs (rank_cold), a digest-distinct tree pool
 * with Zipf-like pair popularity and a Poisson arrival schedule
 * (hot_compare, hot_compare_ipc). The same seed always yields the
 * same inputs; the program under test only ever sees the generated
 * source text or trees.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ast/ast.hh"
#include "base/rng.hh"
#include "codegen/generator.hh"

namespace perfbench
{

/**
 * Composes candidate programs from three codegen draws. Codegen alone
 * repeats itself: a few hundred structural digests cover thousands of
 * draws, so a stream of raw draws is mostly cache hits. A candidate
 * keeps draw A's prelude (globals and helper functions) and fills
 * main() with as many top-level statements as the three draws' mains
 * have on average, taking each from A, B or C at random while keeping
 * each draw's statement order. The tree stays in the size range of a
 * single draw, but the interleaving makes nearly every candidate
 * structurally new (about 0.2% repeat within a run).
 */
class CandidateComposer
{
  public:
    explicit CandidateComposer(std::uint64_t seed);

    /** One composed candidate's source text. */
    std::string next();

    /** One plain codegen draw (no composition). */
    std::string draw();

  private:
    struct Split
    {
        std::string prelude;
        std::vector<std::string> statements;
    };

    static Split split(const std::string& source);

    /** Draws pre-split at construction, composed by next(). */
    static constexpr std::size_t kDrawPool = 2048;

    ccsa::Rng rng_;
    std::vector<std::unique_ptr<ccsa::ProblemGenerator>> generators_;
    std::vector<Split> draws_;
};

/** `count` parsed codegen trees with pairwise distinct digests. */
std::vector<ccsa::Ast> distinctPool(std::size_t count,
                                    std::uint64_t seed);

/** One open-loop request: when it is due and which pool pair. */
struct Arrival
{
    /** Offset from the phase start, ns. */
    std::int64_t dueNs = 0;
    std::uint32_t first = 0;
    std::uint32_t second = 0;
};

/**
 * Poisson arrivals at `ratePerS` over `seconds`, each a pair of
 * distinct pool indices drawn with popularity ~ 1 / (rank + 1).
 */
std::vector<Arrival> poissonSchedule(double ratePerS, double seconds,
                                     std::size_t poolSize,
                                     ccsa::Rng& rng);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
