/**
 * @file
 * Framework validation tests (Sec. IV): the software fault models must
 * agree with the cycle-level engine on masking, faulty-neuron sets,
 * values, and generation order for every sampled fault site.
 */

#include <gtest/gtest.h>

#include <array>

#include "core/validation.hh"
#include "nn/matmul.hh"
#include "test_util.hh"
#include "workloads/models.hh"

using namespace fidelity;

namespace
{

struct WorkloadCase
{
    int index;
    const char *name;
};

class ValidatePerWorkload : public ::testing::TestWithParam<WorkloadCase>
{
};

/** Directed experiments at one flip-flop class on one layer. */
struct DirectedTally
{
    int both = 0;          //!< engine and model both non-masked
    int disagreements = 0; //!< masked on one side only
    int mismatches = 0;    //!< both non-masked, sets/values/order differ
};

DirectedTally
runDirected(Validator &val, FFClass cls, int samples, Rng &rng)
{
    DirectedTally t;
    for (int i = 0; i < samples; ++i) {
        const CaseResult cr = val.runOneDirected(cls, rng);
        EXPECT_EQ(cr.site.ff.cls, cls);
        EXPECT_EQ(cr.category, categoryOfFFClass(cls));
        t.disagreements += cr.rtlMasked != cr.predMasked;
        if (!cr.rtlMasked && !cr.predMasked) {
            t.both += 1;
            // A dropped valid bit leaves stale buffer content: only its
            // position is predictable, not its value.
            const bool values =
                cls == FFClass::LocalValid || cr.valueMatch;
            t.mismatches += !(cr.setMatch && values && cr.orderMatch);
        }
    }
    return t;
}

} // namespace

TEST(Validation, CategoryMappingCoversEveryClass)
{
    EXPECT_EQ(categoryOfFFClass(FFClass::FetchInput),
              FFCategory::PreBufInput);
    EXPECT_EQ(categoryOfFFClass(FFClass::FetchWeight),
              FFCategory::PreBufWeight);
    EXPECT_EQ(categoryOfFFClass(FFClass::OperandInput),
              FFCategory::OperandInput);
    EXPECT_EQ(categoryOfFFClass(FFClass::WeightStage),
              FFCategory::OperandWeight);
    EXPECT_EQ(categoryOfFFClass(FFClass::WeightHold),
              FFCategory::OperandWeight);
    EXPECT_EQ(categoryOfFFClass(FFClass::Psum), FFCategory::OutputPsum);
    EXPECT_EQ(categoryOfFFClass(FFClass::OutputReg),
              FFCategory::OutputPsum);
    EXPECT_EQ(categoryOfFFClass(FFClass::BiasReg),
              FFCategory::OutputPsum);
    EXPECT_EQ(categoryOfFFClass(FFClass::LocalValid),
              FFCategory::LocalControl);
    EXPECT_EQ(categoryOfFFClass(FFClass::LocalMuxSel),
              FFCategory::LocalControl);
    EXPECT_EQ(categoryOfFFClass(FFClass::GlobalConfig),
              FFCategory::GlobalControl);
    EXPECT_EQ(categoryOfFFClass(FFClass::GlobalCounter),
              FFCategory::GlobalControl);
}

TEST_P(ValidatePerWorkload, ModelsMatchEngineExactly)
{
    auto workloads = buildValidationWorkloads(31);
    auto &w = workloads[GetParam().index];
    ASSERT_EQ(w.name, GetParam().name);

    NvdlaConfig cfg;
    Validator val(cfg, *w.layer, w.ins());
    Rng rng(101 + GetParam().index);
    const int samples = 400;

    int disagreements = 0, set_mismatch = 0, value_mismatch = 0,
        order_mismatch = 0, both = 0;
    for (int i = 0; i < samples; ++i) {
        CaseResult cr = val.runOne(rng);
        if (cr.category == FFCategory::GlobalControl)
            continue; // global is statistical, checked separately
        if (cr.rtlMasked != cr.predMasked)
            disagreements += 1;
        if (!cr.rtlMasked && !cr.predMasked) {
            both += 1;
            set_mismatch += !cr.setMatch;
            if (cr.setMatch && cr.site.ff.cls != FFClass::LocalValid)
                value_mismatch += !cr.valueMatch;
            order_mismatch += cr.setMatch && !cr.orderMatch;
        }
    }
    EXPECT_EQ(disagreements, 0);
    EXPECT_EQ(set_mismatch, 0);
    EXPECT_EQ(value_mismatch, 0);
    EXPECT_EQ(order_mismatch, 0);
    // The tiny single-row lstm-fc layer is fetch-dominated, so most
    // sampled sites are inactive; still require a handful of live ones.
    int min_cases = GetParam().index == 4 ? 3 : 20;
    EXPECT_GT(both, min_cases)
        << "sampling produced too few non-masked cases";
}

INSTANTIATE_TEST_SUITE_P(
    TableThree, ValidatePerWorkload,
    ::testing::Values(WorkloadCase{0, "inception-conv3x3"},
                      WorkloadCase{1, "resnet-conv3x3"},
                      WorkloadCase{2, "transformer-fc"},
                      WorkloadCase{3, "attention-matmul"},
                      WorkloadCase{4, "lstm-fc"},
                      WorkloadCase{5, "yolo-conv3x3"}));

TEST(Validation, GlobalControlMostlyFails)
{
    auto workloads = buildValidationWorkloads(33);
    NvdlaConfig cfg;
    Validator val(cfg, *workloads[0].layer, workloads[0].ins());
    Rng rng(7);

    int cases = 0, non_masked = 0;
    while (cases < 120) {
        CaseResult cr = val.runOne(rng);
        if (cr.category != FFCategory::GlobalControl)
            continue;
        cases += 1;
        non_masked += !cr.rtlMasked;
    }
    // The paper observes ~90% of active global-control faults fail;
    // our engine should see a clear majority too.
    EXPECT_GT(static_cast<double>(non_masked) / cases, 0.5);
}

TEST(Validation, ReportAggregatesConsistently)
{
    auto workloads = buildValidationWorkloads(35);
    NvdlaConfig cfg;
    Validator val(cfg, *workloads[1].layer, workloads[1].ins());
    Rng rng(13);
    ValidationReport rep = val.run(300, rng);
    EXPECT_EQ(rep.totalCases, 300u);

    std::uint64_t sum = 0, non_masked = 0;
    for (FFCategory cat : allFFCategories()) {
        const CategoryValidation &cv = rep.forCategory(cat);
        sum += cv.cases;
        non_masked += cv.rtlNonMasked;
        EXPECT_LE(cv.setMatch, cv.bothNonMasked);
        EXPECT_LE(cv.valueMatch, cv.setMatch);
    }
    EXPECT_EQ(sum, rep.totalCases);
    EXPECT_EQ(non_masked, rep.totalNonMasked);

    // The const accessor reads the same per-category slot.
    const ValidationReport &view = rep;
    for (FFCategory cat : allFFCategories())
        EXPECT_EQ(&view.forCategory(cat), &rep.forCategory(cat));
}

TEST(Validation, DirectedSitesOfEveryClassAgree)
{
    // runOneDirected aims every experiment at one flip-flop class, so
    // the rare classes get validation sets of their own.  On a conv,
    // an FC, and a matmul with and without a transposed B, the model
    // must match the engine on every datapath and local-control site,
    // and every class must yield non-masked cases somewhere.
    auto workloads = buildValidationWorkloads(41);
    MatMulAB plain("plain-matmul", /*trans_b=*/false, 16, 0.5f);
    const Tensor a = test::randomTensor(43, 1, 8, 1, 16);
    const Tensor b = test::randomTensor(47, 1, 16, 1, 12);

    struct Target
    {
        const char *name;
        const MacLayer *layer;
        std::vector<const Tensor *> ins;
    };
    const std::vector<Target> targets = {
        {"resnet-conv3x3", workloads[1].layer.get(), workloads[1].ins()},
        {"transformer-fc", workloads[2].layer.get(), workloads[2].ins()},
        {"attention-matmul", workloads[3].layer.get(),
         workloads[3].ins()},
        {"plain-matmul", &plain, {&a, &b}}};
    const FFClass classes[] = {
        FFClass::FetchInput,  FFClass::FetchWeight, FFClass::OperandInput,
        FFClass::WeightStage, FFClass::WeightHold,  FFClass::Psum,
        FFClass::OutputReg,   FFClass::BiasReg,     FFClass::LocalValid,
        FFClass::LocalMuxSel};

    NvdlaConfig cfg;
    Rng rng(53);
    std::array<int, std::size(classes)> live{};
    for (const Target &t : targets) {
        Validator val(cfg, *t.layer, t.ins);
        for (std::size_t c = 0; c < std::size(classes); ++c) {
            SCOPED_TRACE(std::string(t.name) + ", class " +
                         std::to_string(c));
            const DirectedTally tally =
                runDirected(val, classes[c], 40, rng);
            EXPECT_EQ(tally.disagreements, 0);
            EXPECT_EQ(tally.mismatches, 0);
            live[c] += tally.both;
        }
    }
    for (std::size_t c = 0; c < std::size(classes); ++c)
        EXPECT_GT(live[c], 0) << "class " << c << " never failed";
}

TEST(Validation, GlobalCountersAreLiveOnlyInThePhasesThatReadThem)
{
    // Configuration registers are always live; each sequencing counter
    // only in the engine phases that read it.
    auto workloads = buildValidationWorkloads(59);
    NvdlaConfig cfg;
    Validator val(cfg, *workloads[1].layer, workloads[1].ins());
    Rng rng(61);

    for (int i = 0; i < 20; ++i) {
        const CaseResult cr = val.runOneDirected(FFClass::GlobalConfig, rng);
        EXPECT_EQ(cr.category, FFCategory::GlobalControl);
        EXPECT_TRUE(val.globalSiteActive(cr.site));
    }

    using P = EnginePhase;
    std::array<int, static_cast<int>(CounterReg::NumRegs)> live{}, idle{};
    for (int i = 0; i < 600; ++i) {
        const FaultSite site =
            val.fi().sampleSiteDirected(FFClass::GlobalCounter, rng);
        const P ph = val.fi().context(site).phase;
        const auto reg = static_cast<CounterReg>(site.ff.unit);
        bool want = false;
        switch (reg) {
          case CounterReg::Fetch:
            want = ph == P::FetchW || ph == P::FetchI;
            break;
          case CounterReg::ChanGroup:
          case CounterReg::Block:
            want = ph == P::BlockStart || ph == P::LoadStage ||
                   ph == P::LoadHold || ph == P::Mac || ph == P::Drain;
            break;
          case CounterReg::RedStep:
            want = ph == P::LoadStage || ph == P::LoadHold || ph == P::Mac;
            break;
          case CounterReg::Pos:
            want = ph == P::Mac;
            break;
          case CounterReg::Drain:
            want = ph == P::Drain;
            break;
          case CounterReg::NumRegs:
            ADD_FAILURE() << "sampled a counter past NumRegs";
            break;
        }
        EXPECT_EQ(val.globalSiteActive(site), want) << site.str();
        (want ? live : idle)[static_cast<std::size_t>(site.ff.unit)] += 1;
    }
    for (std::size_t r = 0; r < live.size(); ++r)
        EXPECT_GT(live[r], 0) << "counter " << r << " never live";
    // Outside its phases a counter is idle; a site that is not global
    // at all is never a live global site.
    EXPECT_GT(idle[static_cast<std::size_t>(CounterReg::Pos)], 0);
    const CaseResult psum = val.runOneDirected(FFClass::Psum, rng);
    EXPECT_FALSE(val.globalSiteActive(psum.site));
}

TEST(Validation, IntegerPrecisionAlsoValidates)
{
    // The bit-exact agreement must hold in INT8 mode as well.
    auto workloads = buildValidationWorkloads(37, Precision::INT8);
    NvdlaConfig cfg;
    Validator val(cfg, *workloads[1].layer, workloads[1].ins());
    Rng rng(17);
    int disagreements = 0, mismatches = 0, both = 0;
    for (int i = 0; i < 300; ++i) {
        CaseResult cr = val.runOne(rng);
        if (cr.category == FFCategory::GlobalControl)
            continue;
        disagreements += cr.rtlMasked != cr.predMasked;
        if (!cr.rtlMasked && !cr.predMasked) {
            both += 1;
            if (cr.site.ff.cls != FFClass::LocalValid)
                mismatches += !(cr.setMatch && cr.valueMatch);
        }
    }
    EXPECT_EQ(disagreements, 0);
    EXPECT_EQ(mismatches, 0);
    EXPECT_GT(both, 10);
}

TEST(Validation, PredictionIsDeterministic)
{
    auto workloads = buildValidationWorkloads(39);
    NvdlaConfig cfg;
    Validator val(cfg, *workloads[0].layer, workloads[0].ins());
    Rng rng(19);
    for (int i = 0; i < 20; ++i) {
        FaultSite site = val.fi().sampleSite(rng);
        Prediction a = val.predict(site);
        Prediction b = val.predict(site);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.flats, b.flats);
        EXPECT_EQ(a.values, b.values);
    }
}
