/**
 * @file
 * PolicyRegistry: name -> factory registry for fetch and issue
 * policies.
 *
 * The registry decouples policy selection from the core: SmtConfig
 * carries a policy *name* (or the legacy enum, whose toString() is the
 * name), the core resolves it to a strategy object exactly once at
 * construction, and the per-cycle hot paths call virtual methods on the
 * resolved object — no per-candidate switch dispatch.
 *
 * Registering a new policy:
 *
 *   PolicyRegistry::instance().registerFetchPolicy("MYPOLICY", [] {
 *       return std::make_unique<MyPolicy>();
 *   });
 *   cfg.fetchPolicyName = "MYPOLICY";
 *
 * The paper's policies are pre-registered by the registerBuiltin*
 * hooks the first time instance() is called. Re-registering a builtin
 * name replaces it for every core built afterwards.
 */

#ifndef SMT_POLICY_REGISTRY_HH
#define SMT_POLICY_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "policy/fetch_policy.hh"
#include "policy/issue_policy.hh"

namespace smt
{

struct SmtConfig;

namespace policy
{

using FetchPolicyFactory = std::function<std::unique_ptr<FetchPolicy>()>;
using IssuePolicyFactory = std::function<std::unique_ptr<IssuePolicy>()>;

/** Process-wide policy name registry (builtins pre-installed). */
class PolicyRegistry
{
  public:
    static PolicyRegistry &instance();

    /** Register a policy; re-registering a name replaces the factory. */
    void registerFetchPolicy(std::string name, FetchPolicyFactory make);
    void registerIssuePolicy(std::string name, IssuePolicyFactory make);

    bool hasFetchPolicy(const std::string &name) const;
    bool hasIssuePolicy(const std::string &name) const;

    /** Instantiate a policy by name; fatal on an unknown name. */
    std::unique_ptr<FetchPolicy> makeFetchPolicy(
        const std::string &name) const;
    std::unique_ptr<IssuePolicy> makeIssuePolicy(
        const std::string &name) const;

    /** Registered names, in registration order. */
    std::vector<std::string> fetchPolicyNames() const;
    std::vector<std::string> issuePolicyNames() const;

  private:
    PolicyRegistry();

    std::vector<std::pair<std::string, FetchPolicyFactory>> fetch_;
    std::vector<std::pair<std::string, IssuePolicyFactory>> issue_;
};

/** Resolve the policies a config names (enum or override string). */
std::unique_ptr<FetchPolicy> makeFetchPolicy(const SmtConfig &cfg);
std::unique_ptr<IssuePolicy> makeIssuePolicy(const SmtConfig &cfg);

} // namespace policy
} // namespace smt

#endif // SMT_POLICY_REGISTRY_HH
