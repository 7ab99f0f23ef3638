// Fixture: an allow(...) that suppresses nothing is stale.  Expected: one
// LINT-ANNOT finding, for the allow on line 6 (its target line has no
// DET-BANNED finding); the allow on line 10 is used and stays clean.
#include <cstdlib>

// xunet-lint: allow(DET-BANNED) -- fixture: nothing here to allow
int quiet() { return 0; }

int noisy() {
  return rand();  // xunet-lint: allow(DET-BANNED) -- fixture: used
}
