#include "obs/stats_registry.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "base/logging.hh"
#include "obs/json.hh"

namespace ap::obs
{

namespace
{

/** "<digits of c>." — the part of "cell<c>." after "cell". */
std::string_view
cell_digits(std::uint32_t c, char (&buf)[12])
{
    char *end = std::to_chars(buf, buf + 10, c).ptr;
    *end++ = '.';
    return {buf, static_cast<std::size_t>(end - buf)};
}

/** The allocation-free core of StatsRegistry::matches(). */
bool
match_segments(std::string_view pattern, std::string_view path)
{
    for (;;) {
        std::size_t pd = pattern.find('.');
        std::size_t sd = path.find('.');
        std::string_view pseg = pattern.substr(0, pd);
        if (pseg != "*" && pseg != path.substr(0, sd))
            return false;
        bool pend = pd == std::string_view::npos;
        bool send = sd == std::string_view::npos;
        if (pend || send)
            return pend && send;
        pattern.remove_prefix(pd + 1);
        path.remove_prefix(sd + 1);
    }
}

} // namespace

StatPath::StatPath(std::string_view path) : name(path)
{
    if (!path.starts_with("cell"))
        return;
    std::size_t i = 4;
    while (i < path.size() && i < 10 && path[i] >= '0' &&
           path[i] <= '9')
        ++i;
    // Canonical decimal only, so the path round-trips exactly, and at
    // most six digits (max_cell).
    bool canonical = i > 4 && (i == 5 || path[4] != '0');
    if (!canonical || i >= path.size() || path[i] != '.')
        return;
    std::uint32_t n = 0;
    std::from_chars(path.data() + 4, path.data() + i, n);
    cell = n;
    name = path.substr(i + 1);
}

void
StatsRegistry::add(StatPath path, StatEntry stat)
{
    if (path.cell != StatPath::no_cell) {
        if (path.cell > StatPath::max_cell)
            panic("stats path of cell %u beyond cell %u", path.cell,
                  StatPath::max_cell);
        cellLimit = std::max(cellLimit, path.cell + 1);
    }
    entries.push_back(
        Entry{path.cell, intern(path.name), false, std::move(stat)});
    pending = true;
}

void
StatsRegistry::reserve(std::size_t paths)
{
    entries.reserve(entries.size() + paths);
}

void
StatsRegistry::add_counter(StatPath path, const std::uint64_t *v)
{
    add(path, StatEntry{StatKind::counter, [v]() { return *v; }, nullptr});
}

void
StatsRegistry::add_gauge(StatPath path,
                         std::function<std::uint64_t()> fn)
{
    add(path, StatEntry{StatKind::gauge, std::move(fn), nullptr});
}

void
StatsRegistry::add_gauge(StatPath path, const std::uint64_t *v)
{
    add(path, StatEntry{StatKind::gauge, [v]() { return *v; }, nullptr});
}

void
StatsRegistry::add_histogram(StatPath path, const Histogram *h)
{
    add(path, StatEntry{StatKind::histogram,
                        [h]() { return h->scalar().count(); }, h});
}

std::uint32_t
StatsRegistry::intern(std::string_view name)
{
    if ((nameSlices.size() + 1) * 2 > nameIndex.size()) {
        // Rehash at half load.
        std::vector<std::uint32_t> bigger(
            std::max<std::size_t>(64, nameIndex.size() * 2), 0);
        for (std::uint32_t id = 0; id < nameSlices.size(); ++id) {
            std::size_t h = std::hash<std::string_view>{}(name_of(id));
            while (bigger[h & (bigger.size() - 1)] != 0)
                ++h;
            bigger[h & (bigger.size() - 1)] = id + 1;
        }
        nameIndex.swap(bigger);
    }
    std::size_t mask = nameIndex.size() - 1;
    for (std::size_t h = std::hash<std::string_view>{}(name);; ++h) {
        std::uint32_t &slot = nameIndex[h & mask];
        if (slot == 0) {
            auto id = static_cast<std::uint32_t>(nameSlices.size());
            nameSlices.emplace_back(
                static_cast<std::uint32_t>(nameChars.size()),
                static_cast<std::uint32_t>(name.size()));
            nameChars.append(name);
            slot = id + 1;
            return id;
        }
        if (name_of(slot - 1) == name)
            return slot - 1;
    }
}

std::uint32_t
StatsRegistry::name_id(std::string_view name) const
{
    if (nameIndex.empty())
        return UINT32_MAX;
    std::size_t mask = nameIndex.size() - 1;
    for (std::size_t h = std::hash<std::string_view>{}(name);; ++h) {
        std::uint32_t slot = nameIndex[h & mask];
        if (slot == 0)
            return UINT32_MAX;
        if (name_of(slot - 1) == name)
            return slot - 1;
    }
}

std::string_view
StatsRegistry::name_of(std::uint32_t id) const
{
    auto [off, len] = nameSlices[id];
    return std::string_view(nameChars).substr(off, len);
}

void
StatsRegistry::path_of(const Entry &e, std::string &out) const
{
    out.clear();
    if (e.cell != StatPath::no_cell) {
        char buf[12];
        out += "cell";
        out += cell_digits(e.cell, buf);
    }
    out += name_of(e.name);
}

std::uint64_t
StatsRegistry::key(const Entry &e) const
{
    if (e.cell == StatPath::no_cell)
        return std::uint64_t{nameGroup[e.name]} << 32;
    return (std::uint64_t{cellGroup[e.cell]} << 32) | (nameRank[e.name] + 1);
}

void
StatsRegistry::rank() const
{
    // A path is its group — a plain path, or a "cell<N>." prefix —
    // plus, for a cell path, its name. No plain path starts with a
    // cell prefix (it would have parsed as a cell path) and no cell
    // prefix is a prefix of another, so groups order like the paths
    // in them, and within a cell group the names decide.
    std::uint32_t names = static_cast<std::uint32_t>(nameSlices.size());
    std::vector<std::uint32_t> order(names);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t x, std::uint32_t y) {
                  return name_of(x) < name_of(y);
              });
    nameRank.resize(names);
    for (std::uint32_t r = 0; r < names; ++r)
        nameRank[order[r]] = r;

    // Group items: ids below `names` are plain names, the rest cells.
    std::vector<std::string> prefixes(cellLimit);
    for (std::uint32_t c = 0; c < cellLimit; ++c) {
        char buf[12];
        prefixes[c] = "cell";
        prefixes[c] += cell_digits(c, buf);
    }
    auto group = [&](std::uint32_t g) {
        return g < names ? name_of(g)
                         : std::string_view(prefixes[g - names]);
    };
    order.resize(names + cellLimit);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                  return group(x) < group(y);
              });
    nameGroup.resize(names);
    cellGroup.resize(cellLimit);
    for (std::uint32_t r = 0; r < order.size(); ++r) {
        if (order[r] < names)
            nameGroup[order[r]] = r;
        else
            cellGroup[order[r] - names] = r;
    }
}

void
StatsRegistry::settle(bool compact) const
{
    if (pending) {
        rank();
        // Sort by path, then by registration: the last registration
        // of a path replaces earlier ones.
        std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
        order.reserve(entries.size());
        for (std::uint32_t i = 0; i < entries.size(); ++i)
            order.emplace_back(key(entries[i]), i);
        std::sort(order.begin(), order.end());
        std::vector<Entry> sorted;
        sorted.reserve(order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            Entry &e = entries[order[i].second];
            if (e.removed || (i + 1 < order.size() &&
                              order[i + 1].first == order[i].first))
                continue;
            sorted.push_back(std::move(e));
        }
        entries.swap(sorted);
        pending = false;
        removedCount = 0;
    } else if (compact && removedCount > 0) {
        std::erase_if(entries, [](const Entry &e) { return e.removed; });
        removedCount = 0;
    }
}

void
StatsRegistry::remove_prefix(const std::string &prefix)
{
    settle(false);
    auto it = std::partition_point(
        entries.begin(), entries.end(), [&](const Entry &e) {
            path_of(e, scratch);
            return scratch < prefix;
        });
    for (; it != entries.end(); ++it) {
        path_of(*it, scratch);
        if (!scratch.starts_with(prefix))
            break;
        if (!it->removed) {
            it->removed = true;
            ++removedCount;
        }
    }
}

std::size_t
StatsRegistry::size() const
{
    settle();
    return entries.size();
}

std::vector<std::string>
StatsRegistry::paths() const
{
    settle();
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const Entry &e : entries) {
        path_of(e, scratch);
        out.push_back(scratch);
    }
    return out;
}

const StatEntry *
StatsRegistry::find(const std::string &path) const
{
    settle();
    StatPath p(path);
    std::uint32_t id = name_id(p.name);
    if (id == UINT32_MAX ||
        (p.cell != StatPath::no_cell && p.cell >= cellLimit))
        return nullptr;
    std::uint64_t k = key(Entry{p.cell, id, false, {}});
    auto it = std::lower_bound(
        entries.begin(), entries.end(), k,
        [this](const Entry &e, std::uint64_t x) { return key(e) < x; });
    return it != entries.end() && key(*it) == k ? &it->stat : nullptr;
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
    return match_segments(pattern, path);
}

template <typename F>
void
StatsRegistry::each_match(const std::string &pattern, F f) const
{
    settle();
    for (const Entry &e : entries) {
        path_of(e, scratch);
        if (match_segments(pattern, scratch))
            f(e);
    }
}

std::uint64_t
StatsRegistry::sum(const std::string &pattern) const
{
    std::uint64_t total = 0;
    each_match(pattern, [&](const Entry &e) { total += e.stat.value(); });
    return total;
}

std::uint64_t
StatsRegistry::max_over(const std::string &pattern,
                        std::string *who) const
{
    std::uint64_t best = 0;
    bool any = false;
    each_match(pattern, [&](const Entry &e) {
        std::uint64_t v = e.stat.value();
        if (!any || v > best) {
            best = v;
            if (who)
                path_of(e, *who);
        }
        any = true;
    });
    return best;
}

StatsRegistry::Snapshot
StatsRegistry::snapshot() const
{
    settle();
    Snapshot snap;
    for (const Entry &e : entries) {
        path_of(e, scratch);
        snap.emplace_hint(snap.end(), scratch, e.stat.value());
    }
    return snap;
}

std::map<std::string, std::int64_t>
StatsRegistry::delta_since(const Snapshot &before) const
{
    settle();
    std::map<std::string, std::int64_t> d;
    for (const Entry &e : entries) {
        path_of(e, scratch);
        auto it = before.find(scratch);
        std::uint64_t was = it == before.end() ? 0 : it->second;
        d.emplace_hint(d.end(), scratch,
                       static_cast<std::int64_t>(e.stat.value()) -
                           static_cast<std::int64_t>(was));
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
    settle();
    JsonTree tree;
    for (const Entry &e : entries) {
        path_of(e, scratch);
        if (has_prefix(scratch, skipPrefix))
            continue;
        if (e.stat.kind == StatKind::histogram)
            tree.set_raw(scratch, histogram_json(*e.stat.hist));
        else
            tree.set(scratch, e.stat.value());
    }
    return tree.render(pretty);
}

std::string
StatsRegistry::dump_text(const std::string &skipPrefix) const
{
    settle();
    std::string out;
    for (const Entry &e : entries) {
        path_of(e, scratch);
        if (has_prefix(scratch, skipPrefix))
            continue;
        if (e.stat.kind == StatKind::histogram) {
            const Accumulator &a = e.stat.hist->scalar();
            out += strprintf(
                "%-48s count=%llu mean=%.2f max=%.0f\n",
                scratch.c_str(),
                static_cast<unsigned long long>(a.count()), a.mean(),
                a.max());
        } else {
            out += strprintf("%-48s %llu\n", scratch.c_str(),
                             static_cast<unsigned long long>(
                                 e.stat.value()));
        }
    }
    return out;
}

} // namespace ap::obs
