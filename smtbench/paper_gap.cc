#include "paper_gap.hh"

#include <cmath>

#include "common/logging.hh"
#include "sweep/experiments.hh"
#include "sweep/json.hh"
#include "sweep/serialize.hh"

namespace smtbench
{

using smt::SimStats;
using smt::sweep::Json;
using smt::sweep::SweepOutcome;

namespace
{

/** A point ref's metric, in the unit the paper quotes it in. */
double
pointMetric(const std::string &metric, const SimStats &s)
{
    const std::uint64_t n = s.committedInstructions;
    if (metric == "ipc")
        return s.ipc();
    if (metric == "out_of_regs_pct")
        return 100.0 * s.outOfRegistersFraction();
    if (metric == "icache_miss_pct")
        return 100.0 * s.icache.missRate();
    if (metric == "icache_mpki")
        return s.icache.mpki(n);
    if (metric == "dcache_miss_pct")
        return 100.0 * s.dcache.missRate();
    if (metric == "dcache_mpki")
        return s.dcache.mpki(n);
    if (metric == "l2_miss_pct")
        return 100.0 * s.l2.missRate();
    if (metric == "l3_miss_pct")
        return 100.0 * s.l3.missRate();
    if (metric == "cond_mispredict_pct")
        return 100.0 * s.branchMispredictRate();
    if (metric == "jump_mispredict_pct")
        return 100.0 * s.jumpMispredictRate();
    if (metric == "int_iq_full_pct")
        return 100.0 * s.intIQFullFraction();
    if (metric == "fp_iq_full_pct")
        return 100.0 * s.fpIQFullFraction();
    if (metric == "avg_queue_population")
        return s.avgQueuePopulation();
    if (metric == "wrong_path_fetched_pct")
        return 100.0 * s.wrongPathFetchedFraction();
    if (metric == "wrong_path_issued_pct")
        return 100.0 * s.wrongPathIssuedFraction();
    if (metric == "optimistic_squash_pct")
        return 100.0 * s.optimisticSquashFraction();
    smt_fatal("paper_refs.json: unknown metric \"%s\"", metric.c_str());
}

std::vector<std::size_t>
sizes(const Json &j)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < j.size(); ++i)
        out.push_back(static_cast<std::size_t>(j[i].asUInt()));
    return out;
}

double
ipcAt(const SweepOutcome &o, std::vector<std::size_t> axis, unsigned t)
{
    return o.at(axis, t).data.ipc();
}

/** A derived or point figure measured on one grid's outcome. */
double
measureRef(const PaperRef &ref, const SweepOutcome &o)
{
    if (ref.kind == "point")
        return pointMetric(ref.metric, o.at(ref.axis, ref.threads).data.stats);
    if (ref.kind == "fig3_peak_speedup")
        return o.sweepFor({0}, "SMT").peakIpc() / ipcAt(o, {1}, 1);
    if (ref.kind == "fig4_gain_8t")
        return 100.0 * (ipcAt(o, {ref.scheme}, 8) / ipcAt(o, {0}, 8) - 1.0);
    if (ref.kind == "fig5_peak_ipc")
        return o.sweepFor({ref.partition, ref.policy}, "ICOUNT").peakIpc();
    if (ref.kind == "fig7_best_contexts") {
        unsigned best_t = 0;
        double best_ipc = 0.0;
        for (unsigned t : o.spec.threadCounts) {
            if (ipcAt(o, {0}, t) > best_ipc) {
                best_ipc = ipcAt(o, {0}, t);
                best_t = t;
            }
        }
        return best_t;
    }
    smt_fatal("paper_refs.json: unknown kind \"%s\"", ref.kind.c_str());
}

} // namespace

std::vector<PaperRef>
loadPaperRefs(const std::string &path)
{
    Json doc;
    if (!Json::readFile(path, doc) || !doc.has("refs"))
        smt_fatal("cannot read paper references from %s", path.c_str());
    std::vector<PaperRef> refs;
    const Json &list = doc.at("refs");
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Json &j = list[i];
        PaperRef r;
        r.id = j.at("id").asString();
        r.kind = j.at("kind").asString();
        r.value = j.at("value").asDouble();
        r.source = j.at("source").asString();
        if (r.kind == "point") {
            r.grid = j.at("grid").asString();
            r.metric = j.at("metric").asString();
            r.axis = sizes(j.at("axis"));
            r.threads = static_cast<unsigned>(j.at("threads").asUInt());
        } else {
            // Derived kinds are named "<grid>_<figure>".
            r.grid = r.kind.substr(0, r.kind.find('_'));
        }
        if (j.has("scheme"))
            r.scheme = j.at("scheme").asUInt();
        if (j.has("partition"))
            r.partition = j.at("partition").asUInt();
        if (j.has("policy"))
            r.policy = j.at("policy").asUInt();
        smt_assert(r.value != 0.0, "paper ref %s has value 0", r.id.c_str());
        refs.push_back(std::move(r));
    }
    return refs;
}

std::vector<Gap>
gapsFromGrids(const std::vector<PaperRef> &refs,
              const std::map<std::string, const SweepOutcome *> &outcomes)
{
    std::vector<Gap> gaps;
    for (const PaperRef &ref : refs) {
        const auto it = outcomes.find(ref.grid);
        if (it != outcomes.end())
            gaps.push_back({&ref, measureRef(ref, *it->second)});
    }
    return gaps;
}

std::vector<Gap>
gapsFromMachines(const std::vector<PaperRef> &refs,
                 const std::vector<MachineResult> &machines)
{
    std::vector<std::string> machine_keys;
    for (const MachineResult &m : machines)
        machine_keys.push_back(smt::sweep::toJson(m.cfg).dump());

    std::vector<Gap> gaps;
    for (const PaperRef &ref : refs) {
        if (ref.kind != "point")
            continue;
        const smt::sweep::NamedExperiment *e =
            smt::sweep::findExperiment(ref.grid);
        smt_assert(e != nullptr, "paper ref grid %s", ref.grid.c_str());
        for (const smt::sweep::SweepPoint &p :
             e->spec.expand(smt::MeasureOptions{})) {
            if (p.axisChoice != ref.axis || p.threads != ref.threads)
                continue;
            const std::string key = smt::sweep::toJson(p.config).dump();
            for (std::size_t i = 0; i < machines.size(); ++i)
                if (machine_keys[i] == key)
                    gaps.push_back(
                        {&ref, pointMetric(ref.metric, machines[i].stats)});
        }
    }
    return gaps;
}

double
meanGapPct(const std::vector<Gap> &gaps)
{
    if (gaps.empty())
        return 0.0;
    double sum = 0.0;
    for (const Gap &g : gaps)
        sum += std::fabs(g.measured - g.ref->value) / std::fabs(g.ref->value);
    return 100.0 * sum / static_cast<double>(gaps.size());
}

} // namespace smtbench
