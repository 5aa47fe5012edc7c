/**
 * @file
 * Hierarchical statistics registry — the machine's one dashboard.
 *
 * Section 5 of the paper sells MLSim on the statistics it can report
 * (user/idle/overhead time, message sizes, communication distances,
 * event counts). The functional machine grew the same needs: every
 * component keeps counters, but until this registry existed they were
 * hand-aggregated in Machine::report(). Components now register their
 * counters, gauges and latency histograms under hierarchical dotted
 * paths ("cell3.msc.user_queue.spills"), and consumers — the report,
 * the JSON dump, the benches — walk the registry instead of knowing
 * every struct.
 *
 * Registration is by pointer/closure, not by copy: an entry reads the
 * live component state at query time, so registering is free on the
 * simulation fast path. Entries must outlive the registry walk; a
 * shorter-lived component (the language runtime) removes its subtree
 * in its destructor via remove_prefix().
 *
 * Storage: a machine registers ~66 paths per cell, so a path is not
 * stored as a string. An entry is (cell, name, source): a path
 * "cell<N>.<rest>" is kept as (N, interned "<rest>"), any other path
 * as (no cell, interned path). Every cell shares its names, so
 * registration appends one entry to a flat array and allocates
 * nothing per path. The full path is built only when a caller lists,
 * dumps, matches or looks one up. Entries are kept in path order;
 * registrations since the last read are sorted and merged in by the
 * next read, and removals are compacted away by it.
 *
 * Thread-safety (parallel kernel audit): the registry is only
 * mutated while the machine is quiescent — registration at Machine
 * construction, removal in the runtime destructor — and walked after
 * the simulator drains, so it carries no lock of its own. A read may
 * sort pending registrations, so reads must not race each other
 * either. The *backing state* is where the shards meet: per-cell
 * component counters are shard-local by construction (a cell's
 * events run on one shard), and the machine-global counters
 * (T-net/B-net stats, fault stats) are updated under their owning
 * component's mutex.
 */

#ifndef AP_OBS_STATS_REGISTRY_HH
#define AP_OBS_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/stats.hh"

namespace ap::obs
{

/** What one registered path is. */
enum class StatKind : std::uint8_t
{
    counter,  ///< monotonically increasing event count
    gauge,    ///< instantaneous or high-water level
    histogram,///< log2-bucketed distribution
};

/** One registry entry (readable view). */
struct StatEntry
{
    StatKind kind = StatKind::counter;
    /** Live value (counter/gauge; histograms report their count). */
    std::function<std::uint64_t()> value;
    /** Histogram payload; null for scalars. */
    const Histogram *hist = nullptr;
};

/**
 * A path as the registry stores it: "cell<N>.<rest>" is cell N with
 * name "<rest>", any other path has no cell and is its own name. The
 * name is only viewed; registration copies it into the name table.
 */
struct StatPath
{
    static constexpr std::uint32_t no_cell = UINT32_MAX;
    /** Largest cell kept as a cell path (six digits; it bounds the
     *  registry's cell rank table). */
    static constexpr std::uint32_t max_cell = 999999;

    std::uint32_t cell = no_cell;
    std::string_view name;

    /** "cell<cell>.<name>", without building the string; @p cell
     *  must be in [0, max_cell]. */
    StatPath(int cell, std::string_view name)
        : cell(static_cast<std::uint32_t>(cell)), name(name)
    {
    }

    /** Split a dotted path ("cell<N>." with N in canonical decimal
     *  becomes a cell path). */
    StatPath(std::string_view path);
    StatPath(const char *path) : StatPath(std::string_view(path)) {}
    StatPath(const std::string &path) : StatPath(std::string_view(path))
    {
    }
};

/** The machine-wide stats namespace. */
class StatsRegistry
{
  public:
    /** Register a counter backed by a live component field. */
    void add_counter(StatPath path, const std::uint64_t *v);

    /** Register a gauge computed on demand. */
    void add_gauge(StatPath path, std::function<std::uint64_t()> fn);

    /** Register a gauge backed by a live high-water field. */
    void add_gauge(StatPath path, const std::uint64_t *v);

    /** Register a histogram backed by a live component field. */
    void add_histogram(StatPath path, const Histogram *h);

    /** Make room for @p paths more registrations (a hint). */
    void reserve(std::size_t paths);

    /** Drop every entry whose path starts with @p prefix. */
    void remove_prefix(const std::string &prefix);

    /** Number of registered paths. */
    std::size_t size() const;

    /** All paths in sorted order. */
    std::vector<std::string> paths() const;

    /** Look up one entry; nullptr when @p path is not registered.
     *  The pointer is valid until the next registration or removal. */
    const StatEntry *find(const std::string &path) const;

    /**
     * Current value of one scalar path (counter or gauge; a
     * histogram's sample count). 0 when unregistered.
     */
    std::uint64_t value(const std::string &path) const;

    /**
     * Sum of every scalar matching @p pattern. Patterns are dotted
     * paths where a "*" segment matches exactly one path segment:
     * "*.msc.puts_sent" sums the counter across all cells.
     */
    std::uint64_t sum(const std::string &pattern) const;

    /**
     * Largest value among scalars matching @p pattern; the winning
     * path lands in @p who when non-null. 0 when nothing matches.
     */
    std::uint64_t max_over(const std::string &pattern,
                           std::string *who = nullptr) const;

    /** @return true when @p path matches @p pattern (see sum()). */
    static bool matches(const std::string &pattern,
                        const std::string &path);

    // -- snapshots / phase deltas --------------------------------------

    /** A point-in-time copy of every scalar (histograms contribute
     *  their sample count). */
    using Snapshot = std::map<std::string, std::uint64_t>;

    /** Capture the current value of every registered path. */
    Snapshot snapshot() const;

    /**
     * Per-path change since @p before. Paths registered after the
     * snapshot count from zero; paths removed since are omitted.
     * Deltas are signed so a gauge that shrank reads negative.
     */
    std::map<std::string, std::int64_t>
    delta_since(const Snapshot &before) const;

    /**
     * Render a delta map as a "path  +N" table, largest magnitude
     * first, zero rows skipped. @p maxRows 0 means unlimited; when
     * rows are cut, a trailing "... (K more)" line says so.
     */
    static std::string
    delta_text(const std::map<std::string, std::int64_t> &d,
               std::size_t maxRows = 0);

    /**
     * Render every entry as nested JSON. Histograms become objects
     * with count/sum/min/max/mean and a bucket map ("b<k>" covers
     * [2^(k-1), 2^k)). Paths starting with @p skipPrefix are
     * omitted — determinism byte-compares use it to drop the
     * kernel's "sim." self-telemetry (host wall-clock, shard shape),
     * which describes how a run executed rather than what the
     * machine did.
     */
    std::string dump_json(bool pretty = true,
                          const std::string &skipPrefix = {}) const;

    /** Render a flat "path = value" text table (histograms show
     *  count/mean/max). Honors @p skipPrefix like dump_json(). */
    std::string dump_text(const std::string &skipPrefix = {}) const;

  private:
    struct Entry
    {
        std::uint32_t cell;
        std::uint32_t name;
        bool removed = false;
        StatEntry stat;
    };

    void add(StatPath path, StatEntry stat);
    std::uint32_t intern(std::string_view name);
    /** Id of an interned name; UINT32_MAX when never interned. */
    std::uint32_t name_id(std::string_view name) const;
    std::string_view name_of(std::uint32_t id) const;
    /** Overwrite @p out with the full path of @p e. */
    void path_of(const Entry &e, std::string &out) const;
    /** Rebuild the rank tables behind key(). */
    void rank() const;
    /** Sort key: entries order by it exactly as their paths do. */
    std::uint64_t key(const Entry &e) const;
    /**
     * Put pending registrations in path order, keeping the last
     * registration of a path, and drop removed entries (without
     * pending registrations, only with @p compact: remove_prefix()
     * defers that).
     */
    void settle(bool compact = true) const;
    /** Call @p f(entry) for every entry matching @p pattern, in path
     *  order. */
    template <typename F>
    void each_match(const std::string &pattern, F f) const;

    // Interned names: characters back to back, an (offset, length)
    // slice per id, and an open-addressing index of id + 1 (0 empty).
    std::string nameChars;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> nameSlices;
    std::vector<std::uint32_t> nameIndex;
    std::uint32_t cellLimit = 0; ///< one past the largest cell seen

    // In path order unless registrations are pending; removed
    // entries stay in place until the next compaction.
    mutable std::vector<Entry> entries;
    mutable bool pending = false;
    mutable std::size_t removedCount = 0;
    // Path-order ranks: of each name, and of each plain path and
    // "cell<N>." prefix among all of them (see rank()).
    mutable std::vector<std::uint32_t> nameRank;
    mutable std::vector<std::uint32_t> nameGroup;
    mutable std::vector<std::uint32_t> cellGroup;
    mutable std::string scratch;
};

} // namespace ap::obs

#endif // AP_OBS_STATS_REGISTRY_HH
