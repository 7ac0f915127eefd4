/**
 * @file
 * IssueStage: selects ready instructions from the two queues, ordered
 * by the configured IssuePolicy, within the functional-unit budgets
 * (Sections 2.1 and 6). The policy orders each queue's candidates
 * with one order() call per queue per cycle.
 */

#ifndef SMT_CORE_STAGES_ISSUE_HH
#define SMT_CORE_STAGES_ISSUE_HH

#include <vector>

#include "core/pipeline_state.hh"
#include "policy/issue_policy.hh"

namespace smt
{

/** Issue-selection stage. */
class IssueStage
{
  public:
    IssueStage(PipelineState &st, const policy::IssuePolicy &pol)
        : st_(st), policy_(pol)
    {
        // Candidates come from one queue's search window at a time.
        cands_.reserve(st.cfg.iqSearchWindow);
    }

    void tick();

  private:
    void collectCandidates(InstructionQueue &queue,
                           std::vector<DynInst *> &out);
    bool issueAllowedBySpeculationMode(const DynInst *inst) const;
    bool loadDisambiguated(const DynInst *inst) const;
    void issueInst(DynInst *inst);

    PipelineState &st_;
    const policy::IssuePolicy &policy_;

    /** Per-cycle candidate scratch (hoisted: no per-tick allocation). */
    std::vector<DynInst *> cands_;
};

} // namespace smt

#endif // SMT_CORE_STAGES_ISSUE_HH
