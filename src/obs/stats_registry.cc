#include "obs/stats_registry.hh"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "base/logging.hh"
#include "obs/json.hh"

namespace ap::obs
{

void
StatsRegistry::add_counter(const std::string &path,
                           const std::uint64_t *v)
{
    entries[path] =
        StatEntry{StatKind::counter, [v]() { return *v; }, nullptr};
}

void
StatsRegistry::add_gauge(const std::string &path,
                         std::function<std::uint64_t()> fn)
{
    entries[path] =
        StatEntry{StatKind::gauge, std::move(fn), nullptr};
}

void
StatsRegistry::add_gauge(const std::string &path,
                         const std::uint64_t *v)
{
    entries[path] =
        StatEntry{StatKind::gauge, [v]() { return *v; }, nullptr};
}

void
StatsRegistry::add_histogram(const std::string &path,
                             const Histogram *h)
{
    entries[path] = StatEntry{
        StatKind::histogram, [h]() { return h->scalar().count(); },
        h};
}

void
StatsRegistry::remove_prefix(const std::string &prefix)
{
    auto it = entries.lower_bound(prefix);
    while (it != entries.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0)
        it = entries.erase(it);
}

std::vector<std::string>
StatsRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto &[path, entry] : entries)
        out.push_back(path);
    return out;
}

const StatEntry *
StatsRegistry::find(const std::string &path) const
{
    auto it = entries.find(path);
    return it == entries.end() ? nullptr : &it->second;
}

std::uint64_t
StatsRegistry::value(const std::string &path) const
{
    const StatEntry *e = find(path);
    return e ? e->value() : 0;
}

bool
StatsRegistry::matches(const std::string &pattern,
                       const std::string &path)
{
    std::size_t pa = 0, sa = 0;
    for (;;) {
        std::size_t pd = pattern.find('.', pa);
        std::size_t sd = path.find('.', sa);
        std::string pseg = pattern.substr(
            pa, pd == std::string::npos ? pd : pd - pa);
        std::string sseg =
            path.substr(sa, sd == std::string::npos ? sd : sd - sa);
        if (pseg != "*" && pseg != sseg)
            return false;
        bool pend = pd == std::string::npos;
        bool send = sd == std::string::npos;
        if (pend || send)
            return pend && send;
        pa = pd + 1;
        sa = sd + 1;
    }
}

std::uint64_t
StatsRegistry::sum(const std::string &pattern) const
{
    std::uint64_t total = 0;
    for (const auto &[path, entry] : entries)
        if (matches(pattern, path))
            total += entry.value();
    return total;
}

std::uint64_t
StatsRegistry::max_over(const std::string &pattern,
                        std::string *who) const
{
    std::uint64_t best = 0;
    bool any = false;
    for (const auto &[path, entry] : entries) {
        if (!matches(pattern, path))
            continue;
        std::uint64_t v = entry.value();
        if (!any || v > best) {
            best = v;
            if (who)
                *who = path;
        }
        any = true;
    }
    return best;
}

StatsRegistry::Snapshot
StatsRegistry::snapshot() const
{
    Snapshot snap;
    for (const auto &[path, entry] : entries)
        snap[path] = entry.value();
    return snap;
}

std::map<std::string, std::int64_t>
StatsRegistry::delta_since(const Snapshot &before) const
{
    std::map<std::string, std::int64_t> d;
    for (const auto &[path, entry] : entries) {
        auto it = before.find(path);
        std::uint64_t was = it == before.end() ? 0 : it->second;
        d[path] = static_cast<std::int64_t>(entry.value()) -
                  static_cast<std::int64_t>(was);
    }
    return d;
}

std::string
StatsRegistry::delta_text(
    const std::map<std::string, std::int64_t> &d,
    std::size_t maxRows)
{
    std::vector<std::pair<std::string, std::int64_t>> rows;
    for (const auto &[path, delta] : d)
        if (delta != 0)
            rows.emplace_back(path, delta);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return std::llabs(a.second) >
                                std::llabs(b.second);
                     });
    std::string out;
    std::size_t shown = 0;
    for (const auto &[path, delta] : rows) {
        if (maxRows != 0 && shown == maxRows)
            break;
        out += strprintf("%-48s %+lld\n", path.c_str(),
                         static_cast<long long>(delta));
        ++shown;
    }
    if (shown < rows.size())
        out += strprintf("... (%zu more)\n", rows.size() - shown);
    if (rows.empty())
        out += "(no change)\n";
    return out;
}

namespace
{

std::string
histogram_json(const Histogram &h)
{
    const Accumulator &a = h.scalar();
    std::string out = strprintf(
        "{\"count\": %llu, \"sum\": %s, \"min\": %s, \"max\": %s, "
        "\"mean\": %s, \"buckets\": {",
        static_cast<unsigned long long>(a.count()),
        json_number(a.sum()).c_str(), json_number(a.min()).c_str(),
        json_number(a.max()).c_str(), json_number(a.mean()).c_str());
    // Only non-empty buckets, ascending.
    bool first = true;
    const std::vector<std::uint64_t> &counts = h.buckets();
    for (std::size_t b = 0; b < counts.size(); ++b) {
        if (counts[b] == 0)
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += strprintf("\"b%zu\": %llu", b,
                         static_cast<unsigned long long>(counts[b]));
    }
    out += "}}";
    return out;
}

} // namespace

namespace
{

bool
has_prefix(const std::string &s, const std::string &prefix)
{
    return !prefix.empty() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

} // namespace

std::string
StatsRegistry::dump_json(bool pretty,
                         const std::string &skipPrefix) const
{
    JsonTree tree;
    for (const auto &[path, entry] : entries) {
        if (has_prefix(path, skipPrefix))
            continue;
        if (entry.kind == StatKind::histogram)
            tree.set_raw(path, histogram_json(*entry.hist));
        else
            tree.set(path, entry.value());
    }
    return tree.render(pretty);
}

std::string
StatsRegistry::dump_text(const std::string &skipPrefix) const
{
    std::string out;
    for (const auto &[path, entry] : entries) {
        if (has_prefix(path, skipPrefix))
            continue;
        if (entry.kind == StatKind::histogram) {
            const Accumulator &a = entry.hist->scalar();
            out += strprintf(
                "%-48s count=%llu mean=%.2f max=%.0f\n", path.c_str(),
                static_cast<unsigned long long>(a.count()), a.mean(),
                a.max());
        } else {
            out += strprintf("%-48s %llu\n", path.c_str(),
                             static_cast<unsigned long long>(
                                 entry.value()));
        }
    }
    return out;
}

} // namespace ap::obs
