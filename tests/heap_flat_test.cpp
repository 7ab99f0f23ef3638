// heap_flat_test.cpp — a testbed's whole lifetime gives back every byte it
// took.  Ten short lifetimes run one after another, each bringing up two
// hosts behind two routers, carrying an encapsulated call's frames and
// closing it; after each, the glibc heap's in-use bytes must equal their
// level after the first (which also pays for the process's one-time
// statics).  A record kept past its owner's destruction shows up as growth.
//
// ctest runs this binary with glibc.malloc.tcache_count=0: the per-thread
// cache keeps freed chunks, and mallinfo2() counts those as in use.
#include <gtest/gtest.h>
#include <malloc.h>

#include <optional>
#include <vector>

#include "core/apps.hpp"
#include "core/testbed.hpp"

namespace xunet {
namespace {

[[nodiscard]] std::size_t heap_in_use() { return mallinfo2().uordblks; }

void one_lifetime() {
  auto tb = core::TestbedConfig{}.hosts(2).build_deferred();
  ASSERT_TRUE(tb->bring_up().ok());
  auto& h1 = tb->host(1);
  core::CallServer server(*h1.kernel, h1.home->kernel->ip_node().address(),
                          "flat", 4700);
  server.start([](util::Result<void>) {});
  tb->sim().run_for(sim::milliseconds(300));
  core::CallClient client(*tb->host(0).kernel,
                          tb->host(0).home->kernel->ip_node().address());
  std::optional<core::CallClient::Call> call;
  client.open("berkeley.rt", "flat", "",
              [&](util::Result<core::CallClient::Call> r) {
                if (r.ok()) call = *r;
              });
  tb->sim().run_for(sim::seconds(2));
  ASSERT_TRUE(call.has_value());
  for (std::size_t size : {48u, 1024u, 9180u, 48u, 9180u}) {
    ASSERT_TRUE(client.send(*call, util::Buffer(size, 0x5a)).ok());
  }
  tb->sim().run_for(sim::seconds(1));
  EXPECT_EQ(server.frames_received(), 5u);
  client.close_call(*call);
  tb->sim().run_for(sim::seconds(2));
}

TEST(HeapFlat, TenTestbedLifetimesLeaveTheHeapWhereTheFirstLeftIt) {
  std::vector<std::size_t> after;
  after.reserve(9);  // the readings must not move the heap themselves
  one_lifetime();
  const std::size_t first = heap_in_use();
  if (first == 0) GTEST_SKIP() << "the allocator keeps no glibc heap accounting";
  for (int i = 1; i < 10; ++i) {
    one_lifetime();
    after.push_back(heap_in_use());
  }
  EXPECT_EQ(after, std::vector<std::size_t>(after.size(), first));
}

}  // namespace
}  // namespace xunet
