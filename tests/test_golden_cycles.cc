/**
 * @file
 * Golden cycle-count regressions for the deterministic workloads.
 *
 * The simulator is deterministic, so per-pass cycle counts are
 * locked in committed golden files: the fig12 scene-labeling forward
 * pass (reduced 64x48 input, same seeds as bench/bench_common.hh) in
 * tests/golden/fig12_cycles.txt, a recurrent LSTM sequence in
 * tests/golden/recurrent_cycles.txt, and a full training iteration
 * (forward + delta + weight-gradient passes) in
 * tests/golden/training_cycles.txt. Any timing-model change shows up
 * here as an exact diff instead of a silent drift in EXPERIMENTS.md
 * numbers.
 *
 * To regenerate after an intentional timing change:
 *   NEUROCUBE_UPDATE_GOLDEN=1 ./tests/test_golden_cycles
 * and commit the rewritten golden files with the change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/neurocube.hh"
#include "core/recurrent.hh"
#include "core/training.hh"
#include "nn/network.hh"

namespace neurocube
{
namespace
{

constexpr char kGoldenPath[] =
    NEUROCUBE_TEST_DATA_DIR "/golden/fig12_cycles.txt";
constexpr char kRecurrentGoldenPath[] =
    NEUROCUBE_TEST_DATA_DIR "/golden/recurrent_cycles.txt";
constexpr char kTrainingGoldenPath[] =
    NEUROCUBE_TEST_DATA_DIR "/golden/training_cycles.txt";

/** Per-layer cycles of the reduced fig12 workload (seed 1). */
std::vector<std::pair<std::string, Tick>>
measuredCycles(const NeurocubeConfig &config = NeurocubeConfig{})
{
    NetworkDesc net = sceneLabelingNetwork(64, 48);
    NetworkData data = NetworkData::randomized(net, 1);
    Tensor input(net.inputMaps(), net.inputHeight(),
                 net.inputWidth());
    Rng rng(2);
    input.randomize(rng);

    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    RunResult run = cube.runForward();

    std::vector<std::pair<std::string, Tick>> rows;
    for (const LayerResult &l : run.layers)
        rows.emplace_back(l.name, l.cycles);
    return rows;
}

std::vector<std::pair<std::string, Tick>>
loadGoldenFile(const char *path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::vector<std::pair<std::string, Tick>> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        unsigned long long cycles = 0;
        fields >> name >> cycles;
        rows.emplace_back(name, Tick(cycles));
    }
    return rows;
}

std::vector<std::pair<std::string, Tick>>
loadGolden()
{
    return loadGoldenFile(kGoldenPath);
}

/**
 * Compare measured per-pass cycles against a golden file, or rewrite
 * it when NEUROCUBE_UPDATE_GOLDEN is set (the caller then skips).
 * @return true when the golden file was regenerated
 */
bool
checkGolden(const char *path, const char *header,
            const std::vector<std::pair<std::string, Tick>> &measured)
{
    if (std::getenv("NEUROCUBE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        EXPECT_TRUE(out.good()) << "cannot write " << path;
        out << header;
        for (const auto &[name, cycles] : measured)
            out << name << " " << cycles << "\n";
        return true;
    }
    auto golden = loadGoldenFile(path);
    EXPECT_EQ(golden.size(), measured.size()) << path;
    for (size_t i = 0; i < golden.size() && i < measured.size();
         ++i) {
        EXPECT_EQ(measured[i].first, golden[i].first)
            << path << " pass " << i;
        EXPECT_EQ(measured[i].second, golden[i].second)
            << path << " pass " << golden[i].first
            << " cycle count drifted; if the timing change is "
               "intentional, regenerate with NEUROCUBE_UPDATE_GOLDEN=1";
    }
    return false;
}

TEST(GoldenCycles, Fig12LayerCyclesAreLocked)
{
    auto measured = measuredCycles();

    if (std::getenv("NEUROCUBE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(kGoldenPath);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
        out << "# Per-layer cycle counts of fig12_inference's "
               "scene-labeling network\n"
            << "# (64x48 input, seeds 1/2, default NeurocubeConfig). "
               "Regenerate with\n"
            << "# NEUROCUBE_UPDATE_GOLDEN=1 ./tests/"
               "test_golden_cycles\n";
        for (const auto &[name, cycles] : measured)
            out << name << " " << cycles << "\n";
        GTEST_SKIP() << "golden file regenerated";
    }

    auto golden = loadGolden();
    ASSERT_EQ(golden.size(), measured.size());
    ASSERT_EQ(golden.size(), 7u) << "fig12 network has 7 layers";
    for (size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(measured[i].first, golden[i].first) << "layer " << i;
        EXPECT_EQ(measured[i].second, golden[i].second)
            << "layer " << golden[i].first
            << " cycle count drifted; if the timing change is "
               "intentional, regenerate with NEUROCUBE_UPDATE_GOLDEN=1";
    }
}

/**
 * The counter registry is observational: a traced run, with every
 * stall, energy and spatial counter site live, must reproduce the
 * golden per-layer cycle counts of the untraced run exactly. Catches
 * any NC_COUNT site that accidentally perturbs component behaviour
 * (e.g. by moving work across an early return).
 */
TEST(GoldenCycles, CountersDoNotChangeCycleCounts)
{
    if (std::getenv("NEUROCUBE_UPDATE_GOLDEN") != nullptr)
        GTEST_SKIP() << "regeneration run";

    NeurocubeConfig traced;
    traced.trace.enabled = true;
    auto measured = measuredCycles(traced);
    EXPECT_EQ(measured, measuredCycles());

    auto golden = loadGolden();
    ASSERT_EQ(golden.size(), measured.size());
    for (size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(measured[i].first, golden[i].first) << "layer " << i;
        EXPECT_EQ(measured[i].second, golden[i].second)
            << "layer " << golden[i].first
            << ": tracing changed the cycle count; the accounting "
               "must stay observational";
    }
}

/**
 * Golden per-pass cycles of a recurrent workload: an LSTM sequence
 * exercises per-pass LUT swaps, per-neuron-weight gate products and
 * host-moved state vectors on top of the plain pass machinery.
 */
TEST(GoldenCycles, RecurrentLstmCyclesAreLocked)
{
    LstmDesc desc;
    desc.inputSize = 12;
    desc.hiddenSize = 16;
    desc.timeSteps = 3;
    LstmWeights weights = LstmWeights::randomized(desc, 75);
    Rng rng(76);
    std::vector<Tensor> inputs;
    for (unsigned t = 0; t < desc.timeSteps; ++t) {
        Tensor x(1, 1, desc.inputSize);
        x.randomize(rng, -1.0, 1.0);
        inputs.push_back(x);
    }

    Neurocube cube((NeurocubeConfig()));
    RunResult run = runLstm(cube, desc, weights, inputs);
    std::vector<std::pair<std::string, Tick>> rows;
    for (const LayerResult &l : run.layers)
        rows.emplace_back(l.name, l.cycles);
    ASSERT_EQ(rows.size(), 7u * desc.timeSteps)
        << "seven passes per LSTM step";

    if (checkGolden(kRecurrentGoldenPath,
                    "# Per-pass cycle counts of the golden LSTM "
                    "sequence (12->16, 3 steps,\n"
                    "# seeds 75/76, default NeurocubeConfig). "
                    "Regenerate with\n"
                    "# NEUROCUBE_UPDATE_GOLDEN=1 "
                    "./tests/test_golden_cycles\n",
                    rows))
        GTEST_SKIP() << "golden file regenerated";
}

/**
 * Golden per-pass cycles of a full training iteration (forward +
 * backward-delta + weight-gradient passes, Fig. 13's workload model
 * on a reduced input).
 */
TEST(GoldenCycles, TrainingIterationCyclesAreLocked)
{
    NetworkDesc net = sceneLabelingNetwork(48, 48);
    NetworkData data = NetworkData::randomized(net, 1);
    Tensor input(net.inputMaps(), net.inputHeight(),
                 net.inputWidth());
    Rng rng(2);
    input.randomize(rng);

    TrainingOptions opts;
    opts.includeWeightGradient = true;
    Neurocube cube((NeurocubeConfig()));
    RunResult run = runTrainingIteration(cube, net, data, input, opts);
    std::vector<std::pair<std::string, Tick>> rows;
    for (const LayerResult &l : run.layers)
        rows.emplace_back(l.name, l.cycles);
    ASSERT_GT(rows.size(), net.layers.size())
        << "training adds backward passes";

    if (checkGolden(kTrainingGoldenPath,
                    "# Per-pass cycle counts of the golden training "
                    "iteration\n"
                    "# (scene-labeling 48x48, full backprop, seeds "
                    "1/2, default config).\n"
                    "# Regenerate with NEUROCUBE_UPDATE_GOLDEN=1 "
                    "./tests/test_golden_cycles\n",
                    rows))
        GTEST_SKIP() << "golden file regenerated";
}

} // namespace
} // namespace neurocube
