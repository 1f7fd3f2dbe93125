// Fixture: library code that ends the process instead of throwing.
#include <cstdlib>

void
onBadConfig(int code)
{
    if (code == 1)
        std::exit(1);
    if (code == 2)
        abort();
    if (code == 3)
        std::_Exit(3);
    std::quick_exit(4);
}
