// Fixture: library code reports the failure by throwing; names that
// merely contain "exit" or "abort" stay quiet.
#include <stdexcept>

struct Loop
{
    bool atExit = false;
    void onExit() { atExit = true; }
    void abortRun() { throw std::runtime_error("run aborted"); }
};

void
onBadConfig(Loop &loop)
{
    loop.onExit();
    loop.abortRun();
}
