#include "inputs.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "frontend/parser.hh"
#include "serve/encoding_cache.hh"

namespace perfbench
{

using ccsa::Ast;
using ccsa::Rng;

CandidateComposer::CandidateComposer(std::uint64_t seed)
    : rng_(seed, 0xC0DE)
{
    for (int f = 0; f < ccsa::kNumFamilies; ++f)
        generators_.push_back(
            ccsa::makeGenerator(static_cast<ccsa::ProblemFamily>(f)));
    // Codegen is the slow part; composing from a pre-split pool of
    // draws costs only string copies per candidate.
    for (std::size_t i = 0; i < kDrawPool; ++i)
        draws_.push_back(split(draw()));
}

std::string
CandidateComposer::draw()
{
    int family = rng_.uniformInt(0, ccsa::kNumFamilies - 1);
    return generators_[static_cast<std::size_t>(family)]
        ->generate(rng_)
        .source;
}

CandidateComposer::Split
CandidateComposer::split(const std::string& source)
{
    // Generated programs end with `int main() {`, an indented body
    // and a closing `}` in column 0. A top-level statement runs from
    // a line at brace depth 0 until the depth is back at 0 on a line
    // ending in ';' or '}'.
    Split out;
    std::istringstream in(source);
    std::string line;
    bool inMain = false;
    int depth = 0;
    std::string current;
    while (std::getline(in, line)) {
        if (!inMain) {
            out.prelude += line + "\n";
            if (line.rfind("int main(", 0) == 0)
                inMain = true;
            continue;
        }
        if (depth == 0 && line == "}")
            break;
        // An `else` continues the statement its `if` started.
        std::size_t first = line.find_first_not_of(" \t");
        if (depth == 0 && current.empty() && first != std::string::npos &&
            line.compare(first, 4, "else") == 0 &&
            !out.statements.empty()) {
            current = out.statements.back();
            out.statements.pop_back();
        }
        for (char c : line) {
            if (c == '{')
                ++depth;
            else if (c == '}')
                --depth;
        }
        current += line + "\n";
        std::size_t end = line.find_last_not_of(" \t");
        char last = end == std::string::npos ? '\0' : line[end];
        if (depth == 0 && (last == ';' || last == '}')) {
            if (current.find("return 0;") == std::string::npos)
                out.statements.push_back(current);
            current.clear();
        }
    }
    return out;
}

std::string
CandidateComposer::next()
{
    const Split* parts[3];
    std::size_t statements = 0;
    for (const Split*& part : parts) {
        part = &draws_[static_cast<std::size_t>(
            rng_.uniformInt(0, static_cast<int>(kDrawPool) - 1))];
        statements += part->statements.size();
    }
    std::size_t taken[3] = {0, 0, 0};
    std::string body;
    // As many statements as an average draw has.
    std::size_t target = std::max<std::size_t>(3, (statements + 2) / 3);
    for (std::size_t n = 0; n < target; ++n) {
        // Pick a draw that still has statements left.
        int pick = rng_.uniformInt(0, 2);
        for (int tries = 0; tries < 3; ++tries) {
            auto p = static_cast<std::size_t>((pick + tries) % 3);
            if (taken[p] < parts[p]->statements.size()) {
                body += parts[p]->statements[taken[p]++];
                break;
            }
        }
    }
    return parts[0]->prelude + body + "    return 0;\n}\n";
}

std::vector<Ast>
distinctPool(std::size_t count, std::uint64_t seed)
{
    CandidateComposer composer(seed);
    std::vector<Ast> pool;
    std::unordered_set<ccsa::AstDigest, ccsa::AstDigestHash> seen;
    while (pool.size() < count) {
        Ast tree = ccsa::parseAndPrune(composer.draw());
        if (seen.insert(ccsa::digestAst(tree)).second)
            pool.push_back(std::move(tree));
    }
    return pool;
}

std::vector<Arrival>
poissonSchedule(double ratePerS, double seconds, std::size_t poolSize,
                Rng& rng)
{
    // Zipf-like popularity: cumulative weights of 1 / (rank + 1).
    std::vector<double> cdf(poolSize);
    double total = 0.0;
    for (std::size_t i = 0; i < poolSize; ++i) {
        total += 1.0 / static_cast<double>(i + 1);
        cdf[i] = total;
    }
    auto pick = [&]() {
        double u = rng.uniform() * total;
        auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
        return static_cast<std::uint32_t>(
            std::min<std::size_t>(it - cdf.begin(), poolSize - 1));
    };

    std::vector<Arrival> out;
    out.reserve(static_cast<std::size_t>(ratePerS * seconds * 1.1));
    const double horizonNs = seconds * 1e9;
    double t = 0.0;
    for (;;) {
        // Exponential gap; 1 - u is in (0, 1], so the log is finite.
        t += -std::log(1.0 - rng.uniform()) / ratePerS * 1e9;
        if (t >= horizonNs)
            break;
        Arrival a;
        a.dueNs = static_cast<std::int64_t>(t);
        a.first = pick();
        do {
            a.second = pick();
        } while (a.second == a.first);
        out.push_back(a);
    }
    return out;
}

} // namespace perfbench
