/**
 * @file
 * A small statistics framework in the spirit of gem5's stats package.
 *
 * Components own a StatGroup; counters register themselves with the
 * group under a name. Groups nest, and every reader walks the tree one
 * way, through visit(): RunResult's counter map, the serve stats
 * command and the text dump all read the same (path, value, desc)
 * callbacks.
 */

#ifndef VIP_SIM_STATS_HH
#define VIP_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace vip {

class StatGroup;

/** A monotonically increasing 64-bit counter statistic. */
class Counter
{
  public:
    Counter() = default;
    Counter(StatGroup *parent, std::string name, std::string desc);

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t value_ = 0;
};

/**
 * A named collection of statistics belonging to one simulated component.
 * Child groups inherit the parent's name as a dotted prefix.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a counter (called from the Counter constructor). */
    void addCounter(Counter *c);

    /**
     * Walk the whole subtree, this group's counters first and then
     * each child group in registration order, calling @p fn with every
     * counter's dotted path rooted at this group's name (e.g.
     * "system.pe0.issued"), its value and its description.
     */
    void visit(const std::function<void(const std::string &path,
                                        std::uint64_t value,
                                        const std::string &desc)> &fn)
        const;

    /** Write one "path value # desc" line per visit() callback. */
    void dump(std::ostream &os) const;

    const std::string &name() const { return name_; }

  private:
    void visitImpl(const std::function<void(const std::string &,
                                            std::uint64_t,
                                            const std::string &)> &fn,
                   const std::string &prefix) const;

    std::string name_;
    std::vector<Counter *> counters_;
    std::vector<StatGroup *> children_;
};

} // namespace vip

#endif // VIP_SIM_STATS_HH
