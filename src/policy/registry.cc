#include "policy/registry.hh"

#include <algorithm>

#include "common/logging.hh"
#include "config/config.hh"

namespace smt::policy
{
namespace
{

template <typename Table>
auto
findEntry(Table &table, const std::string &name)
{
    return std::find_if(table.begin(), table.end(),
                        [&](const auto &e) { return e.first == name; });
}

} // namespace

PolicyRegistry::PolicyRegistry()
{
    registerBuiltinFetchPolicies(*this);
    registerBuiltinIssuePolicies(*this);
}

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry reg;
    return reg;
}

void
PolicyRegistry::registerFetchPolicy(std::string name,
                                    FetchPolicyFactory make)
{
    auto it = findEntry(fetch_, name);
    if (it != fetch_.end())
        it->second = std::move(make);
    else
        fetch_.emplace_back(std::move(name), std::move(make));
}

void
PolicyRegistry::registerIssuePolicy(std::string name,
                                    IssuePolicyFactory make)
{
    auto it = findEntry(issue_, name);
    if (it != issue_.end())
        it->second = std::move(make);
    else
        issue_.emplace_back(std::move(name), std::move(make));
}

bool
PolicyRegistry::hasFetchPolicy(const std::string &name) const
{
    return findEntry(fetch_, name) != fetch_.end();
}

bool
PolicyRegistry::hasIssuePolicy(const std::string &name) const
{
    return findEntry(issue_, name) != issue_.end();
}

std::unique_ptr<FetchPolicy>
PolicyRegistry::makeFetchPolicy(const std::string &name) const
{
    auto it = findEntry(fetch_, name);
    if (it == fetch_.end())
        smt_fatal("unknown fetch policy \"%s\"", name.c_str());
    return it->second();
}

std::unique_ptr<IssuePolicy>
PolicyRegistry::makeIssuePolicy(const std::string &name) const
{
    auto it = findEntry(issue_, name);
    if (it == issue_.end())
        smt_fatal("unknown issue policy \"%s\"", name.c_str());
    return it->second();
}

std::vector<std::string>
PolicyRegistry::fetchPolicyNames() const
{
    std::vector<std::string> names;
    names.reserve(fetch_.size());
    for (const auto &[name, make] : fetch_)
        names.push_back(name);
    return names;
}

std::vector<std::string>
PolicyRegistry::issuePolicyNames() const
{
    std::vector<std::string> names;
    names.reserve(issue_.size());
    for (const auto &[name, make] : issue_)
        names.push_back(name);
    return names;
}

std::unique_ptr<FetchPolicy>
makeFetchPolicy(const SmtConfig &cfg)
{
    return PolicyRegistry::instance().makeFetchPolicy(
        cfg.resolvedFetchPolicyName());
}

std::unique_ptr<IssuePolicy>
makeIssuePolicy(const SmtConfig &cfg)
{
    return PolicyRegistry::instance().makeIssuePolicy(
        cfg.resolvedIssuePolicyName());
}

} // namespace smt::policy
