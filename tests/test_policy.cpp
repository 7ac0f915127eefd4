/**
 * @file
 * Unit tests for the policy layer: the priority ordering each fetch
 * policy produces on a hand-built PipelineState, the candidate ordering
 * of each issue policy, registry resolution (including custom policy
 * registration through SmtConfig name overrides and re-registration of
 * a builtin name), and golden-stats regressions: RR and ICOUNT.2.8
 * pinned to the pre-refactor cycle behaviour, and every paper policy
 * pair pinned to the stats recorded before the single stage walk.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>

#include "core/pipeline_state.hh"
#include "policy/fetch_policies.hh"
#include "policy/registry.hh"
#include "policy_pairs.hh"
#include "sim/simulator.hh"
#include "workload/mix.hh"

namespace smt
{
namespace
{

// ---- Harness ---------------------------------------------------------------

/** A bare machine-state fixture the policies can be queried against. */
class PolicyStateTest : public ::testing::Test
{
  protected:
    PolicyStateTest()
        : cfg_(presets::baseSmt(4)), mem_(cfg_, stats_), bp_(cfg_),
          state_(cfg_, mem_, bp_, stats_)
    {
    }

    std::unique_ptr<policy::FetchPolicy>
    fetchPolicy(const std::string &name)
    {
        return policy::PolicyRegistry::instance().makeFetchPolicy(name);
    }

    std::unique_ptr<policy::IssuePolicy>
    issuePolicy(const std::string &name)
    {
        return policy::PolicyRegistry::instance().makeIssuePolicy(name);
    }

    DynInst *
    mkInst(InstSeqNum seq, ThreadID tid, const StaticInst *si,
           InstStage stage = InstStage::InQueue)
    {
        DynInst *inst = state_.pool.alloc();
        inst->seq = seq;
        inst->tid = tid;
        inst->si = si;
        inst->stage = stage;
        return inst;
    }

    SmtConfig cfg_;
    SimStats stats_;
    MemoryHierarchy mem_;
    BranchPredictor bp_;
    PipelineState state_;
    StaticInst alu_; // default IntAlu, no operands.
};

// ---- Golden stats of every paper policy pair ----------------------------------

struct PairGolden
{
    PolicyPair pair;
    StatKey stats;
};

/**
 * Each paper pair on presets::baseSmt(4) with mixForRun(4, 0), seed
 * salt 0, 6000 cycles. Recorded before the per-pair specialized core
 * engines were folded into the single stage walk; the specialized and
 * the virtual-dispatch engine both produced exactly these values.
 */
constexpr PairGolden kPairGoldens[] = {
    {{"RR", "OLDEST_FIRST"},
     {6000, 3228, 3693, 256, 4151, 97, 420, 12, 191}},
    {{"BRCOUNT", "OLDEST_FIRST"},
     {6000, 2997, 3548, 333, 3922, 137, 406, 13, 192}},
    {{"MISSCOUNT", "OLDEST_FIRST"},
     {6000, 3400, 3783, 232, 4273, 96, 410, 13, 189}},
    {{"ICOUNT", "OLDEST_FIRST"},
     {6000, 3080, 3615, 332, 4010, 152, 386, 13, 198}},
    {{"IQPOSN", "OLDEST_FIRST"},
     {6000, 3360, 3773, 261, 4271, 130, 415, 13, 190}},
    {{"ICOUNT+MISSCOUNT", "OLDEST_FIRST"},
     {6000, 3289, 3684, 236, 4183, 109, 398, 13, 189}},
    {{"ICOUNT", "OPT_LAST"},
     {6000, 3080, 3615, 332, 4021, 161, 379, 13, 202}},
    {{"ICOUNT", "SPEC_LAST"},
     {6000, 3080, 3635, 341, 4008, 157, 366, 13, 198}},
    {{"ICOUNT", "BRANCH_FIRST"},
     {6000, 3254, 3776, 348, 4182, 165, 376, 13, 209}},
};

/** The golden machine, running `pair`. */
SmtConfig
goldenConfig(const PolicyPair &pair)
{
    SmtConfig cfg = presets::baseSmt(4);
    cfg.fetchPolicyName = pair.fetch;
    cfg.issuePolicyName = pair.issue;
    return cfg;
}

/** Run the golden budget and key the result. */
StatKey
runGolden(Simulator &sim)
{
    sim.run(6000);
    sim.core().validateInvariants();
    return StatKey::of(sim.stats());
}

TEST(GoldenStats, EveryPaperPolicyPairMatchesRecordedStats)
{
    ASSERT_EQ(std::size(kPairGoldens), std::size(kPaperPairs));
    for (const PairGolden &g : kPairGoldens) {
        Simulator sim(goldenConfig(g.pair), mixForRun(4, 0), 0);
        EXPECT_EQ(runGolden(sim), g.stats)
            << g.pair.fetch << "." << g.pair.issue;
    }
}

// ---- Golden-stats regression ---------------------------------------------------

/**
 * Pre-refactor committed/fetched/issued counts of the monolithic core
 * (seed 1, mixForRun, 20000 cycles), captured before SmtCore was split
 * into stage modules. The stage-per-class core must stay cycle-exact.
 */
TEST(GoldenStats, RrBaseMachineMatchesPreRefactorCore)
{
    SmtConfig cfg = presets::baseSmt(4);
    Simulator sim(cfg, mixForRun(4, 0));
    sim.run(20000);
    const SimStats &s = sim.stats();
    EXPECT_EQ(s.committedInstructions, 33373u);
    EXPECT_EQ(s.fetchedInstructions, 36046u);
    EXPECT_EQ(s.issuedInstructions, 40476u);
    EXPECT_EQ(s.condBranchMispredicts, 81u);
    EXPECT_EQ(s.dcache.misses, 1293u);
}

TEST(GoldenStats, Icount28MatchesPreRefactorCore)
{
    SmtConfig cfg = presets::icount28(4);
    Simulator sim(cfg, mixForRun(4, 0));
    sim.run(20000);
    const SimStats &s = sim.stats();
    EXPECT_EQ(s.committedInstructions, 33173u);
    EXPECT_EQ(s.fetchedInstructions, 35951u);
    EXPECT_EQ(s.issuedInstructions, 39341u);
    EXPECT_EQ(s.condBranchMispredicts, 88u);
    EXPECT_EQ(s.dcache.misses, 1261u);
    EXPECT_EQ(s.optimisticSquashes, 2467u);
}

// ---- Registry --------------------------------------------------------------

TEST(PolicyRegistry, BuiltinsRegistered)
{
    const auto &reg = policy::PolicyRegistry::instance();
    for (const char *name :
         {"RR", "BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN",
          "ICOUNT+MISSCOUNT"})
        EXPECT_TRUE(reg.hasFetchPolicy(name)) << name;
    for (const char *name :
         {"OLDEST_FIRST", "OPT_LAST", "SPEC_LAST", "BRANCH_FIRST"})
        EXPECT_TRUE(reg.hasIssuePolicy(name)) << name;
    EXPECT_FALSE(reg.hasFetchPolicy("NO_SUCH_POLICY"));
}

TEST(PolicyRegistry, EnumNamesResolveToMatchingPolicies)
{
    SmtConfig cfg = presets::icount28(4);
    EXPECT_EQ(cfg.resolvedFetchPolicyName(), "ICOUNT");
    EXPECT_EQ(cfg.resolvedIssuePolicyName(), "OLDEST_FIRST");
    EXPECT_STREQ(policy::makeFetchPolicy(cfg)->name(), "ICOUNT");
    EXPECT_STREQ(policy::makeIssuePolicy(cfg)->name(), "OLDEST_FIRST");
}

TEST(PolicyRegistry, NameOverrideBeatsEnum)
{
    SmtConfig cfg = presets::baseSmt(2);
    cfg.fetchPolicy = FetchPolicy::RoundRobin;
    cfg.fetchPolicyName = "ICOUNT+MISSCOUNT";
    EXPECT_STREQ(policy::makeFetchPolicy(cfg)->name(),
                 "ICOUNT+MISSCOUNT");
    EXPECT_EQ(cfg.fetchSchemeName(), "ICOUNT+MISSCOUNT.1.8");
}

TEST(PolicyRegistry, CustomPolicyRunsASimulation)
{
    // A custom policy needs only a registry entry: fetch the highest
    // thread id first (deliberately silly, easy to register).
    class HighestTidPolicy final : public policy::FetchPolicy
    {
      public:
        const char *name() const override { return "HIGHEST_TID"; }

        double
        priorityKey(const PipelineState &, ThreadID tid) const override
        {
            return -static_cast<double>(tid);
        }
    };
    policy::PolicyRegistry::instance().registerFetchPolicy(
        "HIGHEST_TID", [] { return std::make_unique<HighestTidPolicy>(); });

    SmtConfig cfg = presets::baseSmt(2);
    cfg.fetchPolicyName = "HIGHEST_TID";
    Simulator sim(cfg, mixForRun(2, 0));
    sim.run(3000);
    EXPECT_GT(sim.stats().committedInstructions, 500u);
    EXPECT_STREQ(sim.core().fetchPolicy().name(), "HIGHEST_TID");

    // The same policy re-registered under a builtin name replaces the
    // builtin for every core built afterwards. A core resolves its
    // policies at construction, so the builtin is restored before any
    // assertion can end the test early.
    auto &reg = policy::PolicyRegistry::instance();
    const PairGolden &icount = kPairGoldens[3];
    ASSERT_STREQ(icount.pair.fetch, "ICOUNT");
    ASSERT_STREQ(icount.pair.issue, "OLDEST_FIRST");
    reg.registerFetchPolicy(
        "ICOUNT", [] { return std::make_unique<HighestTidPolicy>(); });
    Simulator replaced(goldenConfig(icount.pair), mixForRun(4, 0), 0);
    reg.registerFetchPolicy(
        "ICOUNT", [] { return std::make_unique<policy::ICountPolicy>(); });
    Simulator restored(goldenConfig(icount.pair), mixForRun(4, 0), 0);

    EXPECT_STREQ(replaced.core().fetchPolicy().name(), "HIGHEST_TID");
    EXPECT_NE(runGolden(replaced), icount.stats);
    EXPECT_EQ(runGolden(restored), icount.stats);
}

// ---- Fetch policies ----------------------------------------------------------

TEST_F(PolicyStateTest, RoundRobinRanksAllThreadsEqual)
{
    auto p = fetchPolicy("RR");
    state_.frontAndQueueCount[0] = 12;
    state_.frontAndQueueCount[1] = 0;
    EXPECT_EQ(p->priorityKey(state_, 0), p->priorityKey(state_, 1));
}

TEST_F(PolicyStateTest, ICountPrefersThreadWithFewestInstructions)
{
    auto p = fetchPolicy("ICOUNT");
    state_.frontAndQueueCount[0] = 7;
    state_.frontAndQueueCount[1] = 2;
    state_.frontAndQueueCount[2] = 11;
    // Lower key = higher priority: thread 1 first, thread 2 last.
    EXPECT_LT(p->priorityKey(state_, 1), p->priorityKey(state_, 0));
    EXPECT_LT(p->priorityKey(state_, 0), p->priorityKey(state_, 2));
}

TEST_F(PolicyStateTest, BrCountPrefersThreadWithFewestBranches)
{
    auto p = fetchPolicy("BRCOUNT");
    state_.branchCount[0] = 4;
    state_.branchCount[1] = 1;
    state_.frontAndQueueCount[0] = 1; // must not matter.
    state_.frontAndQueueCount[1] = 30;
    EXPECT_LT(p->priorityKey(state_, 1), p->priorityKey(state_, 0));
}

TEST_F(PolicyStateTest, MissCountPenalizesOutstandingDCacheMisses)
{
    auto p = fetchPolicy("MISSCOUNT");
    EXPECT_EQ(p->priorityKey(state_, 0), p->priorityKey(state_, 1));

    // A cold D-cache access misses; the fill is outstanding for a while.
    mem_.dataAccess(0, AddressLayout::dataBase(0), false, 0);
    ASSERT_GT(mem_.outstandingDMisses(0, 1), 0u);
    EXPECT_GT(p->priorityKey(state_, 0), p->priorityKey(state_, 1));
}

TEST_F(PolicyStateTest, IQPosnDeprioritizesThreadNearestQueueHead)
{
    auto p = fetchPolicy("IQPOSN");
    // Thread 0 owns the int-queue head (position 0); thread 1's oldest
    // entry sits behind it (position 2); thread 2 has nothing in the
    // int queue (sentinel position = queue size = farthest = best).
    // Thread 3 fills the FP queue so the empty-queue sentinel there
    // (min over both queues) does not clamp threads 0-2 to zero.
    state_.intQueue.insert(mkInst(1, 0, &alu_));
    state_.intQueue.insert(mkInst(2, 0, &alu_));
    state_.intQueue.insert(mkInst(3, 1, &alu_));
    StaticInst fpop;
    fpop.op = OpClass::FpAlu;
    for (InstSeqNum seq = 4; seq <= 6; ++seq)
        state_.fpQueue.insert(mkInst(seq, 3, &fpop));
    p->beginCycle(state_);
    EXPECT_GT(p->priorityKey(state_, 0), p->priorityKey(state_, 1));
    EXPECT_GT(p->priorityKey(state_, 1), p->priorityKey(state_, 2));
}

TEST_F(PolicyStateTest, IQPosnConsidersBothQueues)
{
    auto p = fetchPolicy("IQPOSN");
    StaticInst fpop;
    fpop.op = OpClass::FpAlu;
    // Thread 0 is one slot from the int-queue head but owns the
    // FP-queue head; thread 2 is one slot from the FP-queue head and
    // absent from the int queue. The closest position across both
    // queues governs, so thread 0 (FP head) ranks below thread 2.
    state_.intQueue.insert(mkInst(1, 1, &alu_));
    state_.intQueue.insert(mkInst(2, 0, &alu_));
    state_.fpQueue.insert(mkInst(3, 0, &fpop));
    state_.fpQueue.insert(mkInst(4, 2, &fpop));
    p->beginCycle(state_);
    EXPECT_GT(p->priorityKey(state_, 0), p->priorityKey(state_, 2));
}

TEST_F(PolicyStateTest, HybridICountMissCountBlendsBothSignals)
{
    auto p = fetchPolicy("ICOUNT+MISSCOUNT");
    state_.frontAndQueueCount[0] = 2;
    state_.frontAndQueueCount[1] = 3;
    // Without misses the hybrid degenerates to ICOUNT order...
    EXPECT_LT(p->priorityKey(state_, 0), p->priorityKey(state_, 1));
    // ...but an outstanding miss on thread 0 outweighs its small
    // occupancy edge.
    mem_.dataAccess(0, AddressLayout::dataBase(0), false, 0);
    ASSERT_GT(mem_.outstandingDMisses(0, 1), 0u);
    EXPECT_GT(p->priorityKey(state_, 0), p->priorityKey(state_, 1));
}

// ---- Issue policies -----------------------------------------------------------

TEST_F(PolicyStateTest, OldestFirstOrdersBySequence)
{
    auto p = issuePolicy("OLDEST_FIRST");
    std::vector<DynInst *> cands = {mkInst(9, 0, &alu_), mkInst(3, 1, &alu_),
                                    mkInst(5, 0, &alu_)};
    p->order(state_, cands);
    EXPECT_EQ(cands[0]->seq, 3u);
    EXPECT_EQ(cands[1]->seq, 5u);
    EXPECT_EQ(cands[2]->seq, 9u);
}

TEST_F(PolicyStateTest, BranchFirstHoistsControlInstructions)
{
    auto p = issuePolicy("BRANCH_FIRST");
    StaticInst branch;
    branch.op = OpClass::CondBranch;
    std::vector<DynInst *> cands = {mkInst(1, 0, &alu_),
                                    mkInst(8, 0, &branch),
                                    mkInst(2, 0, &alu_)};
    p->order(state_, cands);
    EXPECT_EQ(cands[0]->seq, 8u); // the branch, though youngest.
    EXPECT_EQ(cands[1]->seq, 1u);
    EXPECT_EQ(cands[2]->seq, 2u);
}

TEST_F(PolicyStateTest, SpecLastDemotesInstructionsBehindABranch)
{
    auto p = issuePolicy("SPEC_LAST");
    StaticInst branch;
    branch.op = OpClass::CondBranch;
    // Thread 0 has an unresolved branch at seq 4: its seq-6 candidate
    // is speculative; thread 1's seq-9 candidate is not.
    DynInst *br = mkInst(4, 0, &branch);
    state_.threads[0].unresolvedBranches.push_back(br);
    std::vector<DynInst *> cands = {mkInst(6, 0, &alu_),
                                    mkInst(9, 1, &alu_)};
    p->order(state_, cands);
    EXPECT_EQ(cands[0]->seq, 9u);
    EXPECT_EQ(cands[1]->seq, 6u);
}

TEST_F(PolicyStateTest, OptLastDemotesUnverifiedLoadDependents)
{
    auto p = issuePolicy("OPT_LAST");
    StaticInst consumer;
    consumer.src1 = LogReg::intReg(3);
    // The consumer's renamed source is optimistic (unverified) until
    // cycle 5; the plain ALU op is not.
    DynInst *opt = mkInst(2, 0, &consumer);
    opt->src1Phys = 40;
    state_.intRegs.setUnverifiedUntil(40, 5);
    std::vector<DynInst *> cands = {opt, mkInst(7, 0, &alu_)};
    p->order(state_, cands);
    EXPECT_EQ(cands[0]->seq, 7u);
    EXPECT_EQ(cands[1]->seq, 2u);
    // Once verified, age order returns.
    state_.intRegs.setUnverifiedUntil(40, 0);
    p->order(state_, cands);
    EXPECT_EQ(cands[0]->seq, 2u);
}

} // namespace
} // namespace smt
