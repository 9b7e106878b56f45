/**
 * @file
 * train: Trainer::fit on a seeded Corpus::generateMixed corpus (9
 * problems x 80 submissions, 3 epochs of 8-pair batches, single
 * thread), then held-out
 * scoring through an Engine. The fit runs the taped forward, the
 * backward pass and Adam — the same tensor/nn layers the serving
 * workloads run tape-free. Accuracy is scored on the corpus' held-out
 * quarter. Latency is timed per request, from a cold cache, on a
 * second corpus of fresh submissions to the same problems: light = one pair (Engine::compare), heavy = a
 * six-candidate tournament (Engine::rank).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hh"
#include "dataset/corpus.hh"
#include "dataset/pairs.hh"
#include "eval/metrics.hh"
#include "model/batch_encode.hh"
#include "model/trainer.hh"
#include "nn/optim.hh"
#include "serve/engine.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

using ccsa::Ast;
using ccsa::CodePair;
using ccsa::Engine;
using ccsa::Result;
using ccsa::Submission;

constexpr int kProblems = 9;
/** 80 rather than 40 submissions per problem: with 30 training and 10
 * test submissions per problem, held-out accuracy swung by +-10
 * points between seeds and fell below the floor on some. */
constexpr int kPerProblem = 80;
/** Training pairs per second of --seconds (fixed work, not adaptive:
 * 2,000 pairs at 10 s). */
constexpr double kPairsPerSecond = 200.0;
constexpr std::size_t kHeldOutPairs = 800;
/** Offset of the fresh corpus seed: generateMixed seeds problem p
 * with seed + p, so the offset keeps the two corpora disjoint. */
constexpr std::uint64_t kFreshSeedOffset = 1000003;
/** Held-out accuracy floor (the integration test's). */
constexpr double kAccuracyFloor = 0.62;
/** Share of --seconds spent scoring held-out submissions. Light and
 * heavy requests alternate, so both see the same machine state. */
constexpr double kScoringShare = 0.4;
constexpr std::size_t kRankCandidates = 6;

/** The bench drivers' model size; the larger library default
 * sometimes stalled near chance within the training budget. */
ccsa::EncoderConfig
encoderConfig()
{
    ccsa::EncoderConfig cfg;
    cfg.embedDim = 24;
    cfg.hiddenDim = 32;
    return cfg;
}

ccsa::TrainConfig
trainConfig(const Args& args)
{
    // The library's learning rate. With two epochs, batches of 16 or
    // 32 pairs, or a learning rate of 5e-3, some seeds stayed below the
    // accuracy floor; this setting cleared it by 7 points or more on
    // each of 30 seeds tried.
    ccsa::TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batchPairs = 8;
    cfg.seed = args.seed;
    return cfg;
}

struct Instance
{
    std::shared_ptr<ccsa::Corpus> corpus;
    std::vector<CodePair> trainPairs;
    /** Pairs of the held-out quarter of the corpus (accuracy). */
    std::vector<CodePair> testPairs;
    /** Fresh submissions to the same problems, never trained on: the
     * inputs of the timed scoring requests. */
    std::shared_ptr<ccsa::Corpus> fresh;
    std::vector<CodePair> freshPairs;
    std::shared_ptr<ccsa::ComparativePredictor> model;
    double corpusS = 0.0;
};

std::vector<int>
allIndices(const ccsa::Corpus& corpus)
{
    std::vector<int> idx(corpus.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = static_cast<int>(i);
    return idx;
}

Instance
setUp(const Args& args)
{
    Instance inst;
    Clock::time_point t0 = Clock::now();
    inst.corpus = std::make_shared<ccsa::Corpus>(
        ccsa::Corpus::generateMixed(kProblems, kPerProblem, args.seed));
    inst.fresh = std::make_shared<ccsa::Corpus>(ccsa::Corpus::generateMixed(
        kProblems, kPerProblem, args.seed + kFreshSeedOffset));
    ccsa::Rng rng(args.seed, 0x5117);
    auto [trainIdx, testIdx] = inst.corpus->split(0.75, rng);
    ccsa::PairOptions trainOpts;
    trainOpts.maxPairs =
        static_cast<std::size_t>(std::lround(args.seconds * kPairsPerSecond));
    inst.trainPairs = ccsa::buildPairs(inst.corpus->submissions(), trainIdx,
                                       trainOpts, rng);
    ccsa::PairOptions evalOpts;
    evalOpts.symmetric = false;
    evalOpts.maxPairs = kHeldOutPairs;
    inst.testPairs = ccsa::buildPairs(inst.corpus->submissions(), testIdx,
                                      evalOpts, rng);
    inst.freshPairs = ccsa::buildPairs(inst.fresh->submissions(),
                                       allIndices(*inst.fresh), evalOpts,
                                       rng);
    inst.corpusS = secondsBetween(t0, Clock::now());
    inst.model = std::make_shared<ccsa::ComparativePredictor>(
        encoderConfig(), args.seed);
    return inst;
}

/** Cold held-out scoring latency, ms: light = one pair through
 * Engine::compare, heavy = a six-candidate Engine::rank. */
struct Scoring
{
    Summary light;
    Summary heavy;
};

Scoring
scoreCold(Engine& engine, const Instance& inst, double seconds,
          std::uint64_t& attempted, std::uint64_t& failed)
{
    const auto& subs = inst.fresh->submissions();
    std::vector<double> lightMs, heavyMs;
    Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (std::size_t k = 0; Clock::now() < end; ++k) {
        const bool rank = k % 2 == 1;
        engine.invalidateCache();
        bool ok = false;
        Clock::time_point t0 = Clock::now();
        if (rank) {
            std::vector<const Ast*> candidates;
            for (std::size_t c = 0; c < kRankCandidates; ++c)
                candidates.push_back(
                    &subs[(k / 2 * kRankCandidates + c) % subs.size()].ast);
            ok = engine.rank(candidates).isOk();
        } else {
            const CodePair& p =
                inst.freshPairs[k / 2 % inst.freshPairs.size()];
            ok = engine
                     .compare(subs[static_cast<std::size_t>(p.first)].ast,
                              subs[static_cast<std::size_t>(p.second)].ast)
                     .isOk();
        }
        double ms = usBetween(t0, Clock::now()) / 1000.0;
        ++attempted;
        if (!ok) {
            ++failed;
            ms = INFINITY;
        }
        (rank ? heavyMs : lightMs).push_back(ms);
    }
    return {summarize(lightMs), summarize(heavyMs)};
}

/** Timings of the replayed batch loop, summed over all batches. */
struct ReplayTimes
{
    double encodeUs = 0, headLossUs = 0, backwardUs = 0, optimUs = 0;
    double totalUs = 0;
    std::size_t batches = 0;
    double finalLoss = 0.0;
};

/**
 * Trainer::fit's batch loop, rebuilt from the public calls it makes
 * (encodeDistinct, logitFromEncodings, bceWithLogits, backward,
 * clipGradNorm, step), each timed. On a model initialised like the
 * fitted one it must reach the same final loss bit for bit.
 */
ReplayTimes
replayFit(ccsa::ComparativePredictor& model, const ccsa::TrainConfig& cfg,
          const std::vector<Submission>& subs,
          const std::vector<CodePair>& pairs)
{
    namespace ag = ccsa::ag;
    ReplayTimes t;
    ccsa::nn::Adam optim(model.parameters(), cfg.learningRate);
    ccsa::Rng rng(cfg.seed, 0xBEEF);
    std::vector<CodePair> order = pairs;
    Clock::time_point start = Clock::now();
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        rng.shuffle(order);
        double lossSum = 0.0;
        std::size_t batches = 0;
        for (std::size_t lo = 0; lo < order.size();
             lo += static_cast<std::size_t>(cfg.batchPairs)) {
            std::size_t hi = std::min(
                order.size(), lo + static_cast<std::size_t>(cfg.batchPairs));
            Clock::time_point t0 = Clock::now();
            auto encoded = ccsa::encodeDistinct(model, subs, order, lo, hi);
            Clock::time_point t1 = Clock::now();
            std::vector<ag::Var> losses;
            for (std::size_t p = lo; p < hi; ++p) {
                ag::Var logit = model.logitFromEncodings(
                    encoded.at(order[p].first), encoded.at(order[p].second));
                losses.push_back(ag::bceWithLogits(
                    logit, ccsa::Tensor(1, 1, order[p].label)));
            }
            ag::Var loss = ag::scale(
                ag::addN(losses), 1.0f / static_cast<float>(losses.size()));
            Clock::time_point t2 = Clock::now();
            optim.zeroGrad();
            ag::backward(loss);
            Clock::time_point t3 = Clock::now();
            if (cfg.gradClip > 0.0f)
                optim.clipGradNorm(cfg.gradClip);
            optim.step();
            Clock::time_point t4 = Clock::now();
            t.encodeUs += usBetween(t0, t1);
            t.headLossUs += usBetween(t1, t2);
            t.backwardUs += usBetween(t2, t3);
            t.optimUs += usBetween(t3, t4);
            lossSum += loss.value().at(0, 0);
            ++batches;
        }
        t.batches += batches;
        t.finalLoss = lossSum / static_cast<double>(batches);
    }
    t.totalUs = usBetween(start, Clock::now());
    return t;
}

} // namespace

void
runTrain(const Args& args, Report& report)
{
    std::vector<double> setups;
    Instance inst;
    for (int r = 0; r < kSetupRepeats; ++r) {
        inst = Instance();
        Clock::time_point t0 = Clock::now();
        inst = setUp(args);
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    const auto& subs = inst.corpus->submissions();
    const ccsa::TrainConfig cfg = trainConfig(args);

    Clock::time_point f0 = Clock::now();
    ccsa::TrainStats stats =
        ccsa::Trainer(*inst.model, cfg).fit(subs, inst.trainPairs);
    double fitS = secondsBetween(f0, Clock::now());
    double pairsPerS = static_cast<double>(inst.trainPairs.size()) *
        cfg.epochs / fitS;
    double pairNodes = 0.0;
    for (const CodePair& p : inst.trainPairs)
        pairNodes += subs[static_cast<std::size_t>(p.first)].ast.size() +
            subs[static_cast<std::size_t>(p.second)].ast.size();

    // Library defaults: encoder threads = hardware threads.
    Engine engine(inst.model);
    std::vector<Engine::PairRequest> requests;
    for (const CodePair& p : inst.testPairs)
        requests.push_back({&subs[static_cast<std::size_t>(p.first)].ast,
                            &subs[static_cast<std::size_t>(p.second)].ast});
    Result<std::vector<double>> probs = engine.compareMany(requests);
    std::uint64_t attempted = 1 + inst.testPairs.size();
    std::uint64_t failed = 0;
    double accuracy = 0.0;
    if (probs.isOk()) {
        std::vector<ccsa::ScoredPair> scored;
        for (std::size_t i = 0; i < requests.size(); ++i)
            scored.push_back({probs.value()[i], inst.testPairs[i].label});
        accuracy = ccsa::pairwiseAccuracy(scored);
    } else {
        failed += inst.testPairs.size();
    }
    Scoring scoring = scoreCold(engine, inst, args.seconds * kScoringShare,
                                attempted, failed);
    const Summary& light = scoring.light;
    const Summary& heavy = scoring.heavy;
    double peakMb = peakRssMb();

    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "fit: %zu pairs x %d epochs in %.3fs, final loss %.17g, "
                  "train acc %.4f",
                  inst.trainPairs.size(), cfg.epochs, fitS, stats.finalLoss(),
                  stats.finalAccuracy());
    report.note(buf);
    std::snprintf(buf, sizeof(buf),
                  "held-out: %zu pairs of the corpus' test quarter, "
                  "accuracy %.4f (floor %.2f)",
                  inst.testPairs.size(), accuracy,
                  kAccuracyFloor);
    report.note(buf);
    report.note("light: cold Engine::compare " + describe(light, "ms"));
    report.note("heavy: cold Engine::rank(6) " + describe(heavy, "ms"));
    std::vector<double> nodes, depth;
    for (const Submission& s : subs) {
        nodes.push_back(s.ast.size());
        depth.push_back(s.ast.depth());
    }
    report.note("workload: corpus " + std::to_string(subs.size()) +
                " submissions, " + std::to_string(cfg.batchPairs) +
                " pairs per training batch, scoring cache cold (0% "
                "resident at submit)");
    report.note("  tree nodes " + describe(summarize(nodes), ""));
    report.note("  tree depth " + describe(summarize(depth), ""));
    std::snprintf(buf, sizeof(buf),
                  "train_pairs_per_s=%.2f pair_nodes_per_s=%.0f "
                  "heldout_accuracy=%.4f "
                  "error_rate=%.6f peak_rss_mb=%.1f",
                  pairsPerS, pairNodes * cfg.epochs / fitS, accuracy,
                  static_cast<double>(failed) / static_cast<double>(attempted),
                  peakMb);
    report.note(buf);

    report.attempted = attempted;
    report.failed = failed;
    if (!std::isfinite(stats.finalLoss()))
        report.fail("training loss is not finite");
    if (!(accuracy > kAccuracyFloor))
        report.fail("held-out accuracy at or below the floor");
    if (failed > 0)
        report.fail("held-out scoring requests failed");

    report.endToEnd("setup_s", medianOf(setups), "s");
    report.endToEnd("work_per_s", pairsPerS, "1/s");
    report.endToEnd("light_p50_ms", light.p50, "ms");
    report.endToEnd("heavy_p50_ms", heavy.p50, "ms");

    if (!args.trace)
        return;

    // ------------------------------------------------ traced run
    ccsa::ComparativePredictor fresh(encoderConfig(), args.seed);
    ReplayTimes t = replayFit(fresh, cfg, subs, inst.trainPairs);
    double batches = static_cast<double>(t.batches);
    report.layer("train.encode_us", t.encodeUs / batches, "us");
    report.layer("train.head_loss_us", t.headLossUs / batches, "us");
    report.layer("tensor.backward_us", t.backwardUs / batches, "us");
    report.layer("nn.optim_step_us", t.optimUs / batches, "us");
    report.layer("dataset.corpus_build_s", inst.corpusS, "s");
    double residual =
        t.totalUs - t.encodeUs - t.headLossUs - t.backwardUs - t.optimUs;
    report.layer("trace.residual_share", residual / t.totalUs, "ratio");
    double tracedPairsPerS =
        static_cast<double>(inst.trainPairs.size()) * cfg.epochs /
        (t.totalUs / 1e6);
    report.layer("trace.overhead_ratio", pairsPerS / tracedPairsPerS,
                 "ratio");
    report.layer("workload.tree_nodes_p50", percentile(nodes, 50), "count");
    report.layer("workload.tree_depth_p50", percentile(depth, 50), "count");
    std::snprintf(buf, sizeof(buf),
                  "replayed fit: %.0f batches, per batch encode=%.1fus "
                  "head+loss=%.1fus backward=%.1fus optim=%.1fus "
                  "residual=%.1f%%",
                  batches, t.encodeUs / batches, t.headLossUs / batches,
                  t.backwardUs / batches, t.optimUs / batches,
                  100.0 * residual / t.totalUs);
    report.note(buf);
    std::snprintf(buf, sizeof(buf),
                  "tracing overhead (traced/untraced): work_per_s %.3f",
                  tracedPairsPerS / pairsPerS);
    report.note(buf);
    std::snprintf(buf, sizeof(buf),
                  "replayed final loss %.17g vs Trainer::fit %.17g",
                  t.finalLoss, stats.finalLoss());
    report.note(buf);
    if (!sameBits(t.finalLoss, stats.finalLoss()))
        report.fail("replayed training loop does not reproduce "
                    "Trainer::fit's final loss bitwise");
}

} // namespace perfbench
