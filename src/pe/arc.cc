#include "pe/arc.hh"

#include "sim/logging.hh"

namespace vip {

ArcTable::ArcTable(unsigned entries) : posOf_(entries, -1)
{
    vip_assert(entries > 0, "ARC needs at least one entry");
    live_.reserve(entries);
}

int
ArcTable::allocate(SpAddr start, SpAddr end)
{
    vip_assert(start < end, "empty ARC range");
    if (full())
        return -1;
    int id = 0;
    while (posOf_[id] >= 0)
        ++id;
    posOf_[id] = static_cast<int>(live_.size());
    live_.push_back({start, end, id});
    return id;
}

void
ArcTable::clear(int id)
{
    vip_assert(id >= 0 && id < static_cast<int>(posOf_.size()),
               "bad ARC id");
    const int pos = posOf_[id];
    vip_assert(pos >= 0, "clearing a dead ARC entry");
    // Swap-remove: the last live entry fills the hole.
    live_[pos] = live_.back();
    posOf_[live_[pos].id] = pos;
    live_.pop_back();
    posOf_[id] = -1;
}

} // namespace vip
