// Fixture: the one sanctioned abort, a panic after its record is
// written, suppressed the audited way.
#include <cstdlib>

[[noreturn]] void
panic()
{
    std::abort();  // vip-lint: allow(no-exit)
}
