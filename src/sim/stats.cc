#include "sim/stats.hh"

#include "sim/logging.hh"

namespace vip {

Counter::Counter(StatGroup *parent, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    vip_assert(parent != nullptr, "counter '", name_, "' needs a group");
    parent->addCounter(this);
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name))
{
    if (parent)
        parent->children_.push_back(this);
}

void
StatGroup::addCounter(Counter *c)
{
    counters_.push_back(c);
}

void
StatGroup::visit(const std::function<void(const std::string &,
                                          std::uint64_t,
                                          const std::string &)> &fn) const
{
    visitImpl(fn, "");
}

void
StatGroup::visitImpl(const std::function<void(const std::string &,
                                              std::uint64_t,
                                              const std::string &)> &fn,
                     const std::string &prefix) const
{
    const std::string base = prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto *c : counters_)
        fn(base + "." + c->name(), c->value(), c->desc());
    for (const auto *g : children_)
        g->visitImpl(fn, base);
}

void
StatGroup::dump(std::ostream &os) const
{
    visit([&os](const std::string &path, std::uint64_t value,
                const std::string &desc) {
        os << path << " " << value << " # " << desc << "\n";
    });
}

} // namespace vip
