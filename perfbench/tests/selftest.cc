// Self-tests of the benchmark's own accounting (src/stats.h): the
// percentile rule, freshness matching by snapshot sequence, and open-loop
// offered-rate accounting. Run with `python3 perfbench/run.py --selftest`;
// exits non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> out;
  for (int i = n; i >= 1; --i) out.push_back(i);  // unsorted on purpose
  return out;
}

void percentile_rule() {
  using namespace perfbench;
  // Nearest rank: p50 of 1..10 is 5, p90 is 9.
  EXPECT(near(percentile(one_to(10), 0.5), 5.0));
  EXPECT(near(percentile(one_to(10), 0.9), 9.0));
  EXPECT(near(percentile({}, 0.5), 0.0));

  // Ten samples beyond: p90 needs n >= 100, p99 n >= 1000, p999 n >= 10000.
  EXPECT(samples_beyond(100, 0.9) == 10);
  EXPECT(percentile_supported(100, 0.9));
  EXPECT(!percentile_supported(99, 0.9));
  EXPECT(percentile_supported(1000, 0.99));
  EXPECT(!percentile_supported(999, 0.99));
  EXPECT(percentile_supported(10000, 0.999));
  EXPECT(!percentile_supported(9999, 0.999));
  EXPECT(!percentile_supported(19, 0.5));
  EXPECT(percentile_supported(20, 0.5));

  const auto small = summarize(one_to(50));
  EXPECT(small.n == 50 && near(small.p50, 25.0));
  EXPECT(small.tail_q == 0.0);  // no tail percentile has ten beyond it

  const auto hundred = summarize(one_to(100));
  EXPECT(near(hundred.tail_q, 0.9) && near(hundred.tail_value, 90.0));
  EXPECT(near(hundred.max, 100.0));

  const auto big = summarize(one_to(20000));
  EXPECT(near(big.tail_q, 0.999) && near(big.tail_value, 19980.0));

  EXPECT(near(median({3, 1, 2}), 2.0));
  EXPECT(near(median({4, 1, 2, 3}), 2.5));
}

void freshness_matching() {
  using namespace perfbench;
  constexpr std::int64_t ms = 1'000'000;
  // Closes 1..4; the server published 1, then coalesced 2 and 3 into the
  // snapshot with sequence 3, then published 4.
  const std::vector<CloseMark> closes = {
      {1, 100 * ms}, {2, 200 * ms}, {3, 300 * ms}, {4, 400 * ms}};
  const std::vector<SequenceSeen> seen = {
      {4, 450 * ms}, {1, 130 * ms}, {3, 380 * ms}};  // any order
  const auto match = match_freshness(closes, seen);
  EXPECT(match.unmatched == 0);
  EXPECT(match.freshness_ms.size() == 4);
  EXPECT(near(match.freshness_ms[0], 30.0));
  // Close 2 was never published on its own: the first response covering
  // it cites sequence 3.
  EXPECT(near(match.freshness_ms[1], 180.0));
  EXPECT(near(match.freshness_ms[2], 80.0));
  EXPECT(near(match.freshness_ms[3], 50.0));

  // A response citing a newer sequence that arrives *earlier* than an
  // older one covers the older close too.
  const auto early = match_freshness({{5, 0}}, {{5, 90 * ms}, {6, 60 * ms}});
  EXPECT(early.freshness_ms.size() == 1 && near(early.freshness_ms[0], 60.0));

  // A close that no response ever covered is counted, not invented.
  const auto late = match_freshness({{9, 0}}, {{8, 10 * ms}});
  EXPECT(late.unmatched == 1 && late.freshness_ms.empty());
}

void offered_rate_accounting() {
  using namespace perfbench;
  const RateStep step{20000.0, 1.5};
  EXPECT(step.scheduled() == 30000);
  EXPECT(near(step.due_s(0), 0.0));
  EXPECT(near(step.due_s(20000), 1.0));
  EXPECT((RateStep{3.0, 1.0}.scheduled() == 3));   // due at 0, 1/3, 2/3
  EXPECT((RateStep{2.5, 1.0}.scheduled() == 3));   // due at 0, 0.4, 0.8

  // Sent over the scheduled duration: the nominal rate when every request
  // went out, less when the sender gave up early.
  EXPECT(near(offered_rate(30000, 1.5), 20000.0));
  EXPECT(near(offered_rate(15000, 1.5), 10000.0));
  EXPECT(near(offered_rate(10, 0.0), 0.0));

  // Achieved counts the time to the last response: a server that needed
  // twice the scheduled time achieved half the rate.
  EXPECT(near(achieved_rate(30000, 3.0), 10000.0));
  EXPECT(near(achieved_rate(30000, 1.5), 20000.0));
}

}  // namespace

int main() {
  percentile_rule();
  freshness_matching();
  offered_rate_accounting();
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
