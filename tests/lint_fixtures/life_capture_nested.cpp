// Fixture: a by-reference lambda nested inside a by-reference lambda that
// is handed to the event engine.  Both capture lists are by reference, but
// there is one sink call, so the expected finding count is exactly 1 (at
// the sink's line).
#include <vector>

struct Sim {
  template <typename F>
  void schedule(long delay, F&& fn);
};

template <typename F>
void open(int dst, F&& done);

void run(Sim& sim, std::vector<int>& tally) {
  sim.schedule(5, [&sim, &tally] {  // finding: one, for both lambdas
    open(1, [&tally](int r) { tally.push_back(r); });
    (void)sim;
  });
}
