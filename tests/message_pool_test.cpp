// Unit tests for MessagePool / PooledMessage: node reuse (the zero-
// allocation steady state), slab growth under exhaustion, and the
// double-release / empty-handle safety properties the network event
// lambdas rely on.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/message_pool.hpp"

namespace dvmc {
namespace {

Message makeMsg(Addr addr) {
  Message m;
  m.type = MsgType::kData;
  m.src = 0;
  m.dest = 1;
  m.addr = addr;
  m.hasData = true;
  m.data.write(0, addr * 3 + 1);
  return m;
}

// ---------------------------------------------------------------------------
// Reuse
// ---------------------------------------------------------------------------

TEST(MessagePool, RoundTripsTheMessage) {
  MessagePool pool;
  PooledMessage pm = pool.acquire(makeMsg(0x40));
  ASSERT_TRUE(static_cast<bool>(pm));
  EXPECT_EQ(pm->addr, 0x40u);
  EXPECT_EQ((*pm).data.read(0), 0x40u * 3 + 1);
  EXPECT_EQ(pool.liveCount(), 1u);
}

TEST(MessagePool, ReleaseRecyclesTheNode) {
  MessagePool pool;
  Message* first;
  {
    PooledMessage pm = pool.acquire(makeMsg(0x40));
    first = &*pm;
  }  // handle scope exit releases
  EXPECT_EQ(pool.liveCount(), 0u);
  PooledMessage again = pool.acquire(makeMsg(0x80));
  // LIFO free list: the very node just released comes back — steady-state
  // traffic cycles through a fixed working set with no new slabs.
  EXPECT_EQ(&*again, first);
  EXPECT_EQ(again->addr, 0x80u);
  EXPECT_EQ(pool.capacity(), 64u);  // still a single slab
}

TEST(MessagePool, SteadyStateChurnNeverGrows) {
  MessagePool pool;
  for (int i = 0; i < 10'000; ++i) {
    PooledMessage a = pool.acquire(makeMsg(0x40));
    PooledMessage b = pool.acquire(makeMsg(0x80));
    EXPECT_EQ(pool.liveCount(), 2u);
  }
  EXPECT_EQ(pool.capacity(), 64u);
}

// ---------------------------------------------------------------------------
// Exhaustion growth
// ---------------------------------------------------------------------------

TEST(MessagePool, GrowsBySlabWhenExhausted) {
  MessagePool pool;
  std::vector<PooledMessage> live;
  for (std::size_t i = 0; i < 65; ++i) {
    live.push_back(pool.acquire(makeMsg(0x40 * (i + 1))));
  }
  EXPECT_EQ(pool.liveCount(), 65u);
  EXPECT_EQ(pool.capacity(), 128u);  // second slab
  // Every handle still dereferences its own message (no aliasing across
  // the growth boundary).
  for (std::size_t i = 0; i < 65; ++i) {
    EXPECT_EQ(live[i]->addr, 0x40 * (i + 1));
  }
  live.clear();
  EXPECT_EQ(pool.liveCount(), 0u);
}

// ---------------------------------------------------------------------------
// No double-release
// ---------------------------------------------------------------------------

TEST(MessagePool, ExplicitReleaseIsIdempotent) {
  MessagePool pool;
  PooledMessage pm = pool.acquire(makeMsg(0x40));
  pm.release();
  EXPECT_EQ(pool.liveCount(), 0u);
  EXPECT_FALSE(static_cast<bool>(pm));
  pm.release();  // second release: no-op, not a free-list corruption
  EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(MessagePool, MovedFromHandleDoesNotRelease) {
  MessagePool pool;
  PooledMessage a = pool.acquire(makeMsg(0x40));
  PooledMessage b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  a.release();  // empty: no-op
  EXPECT_EQ(pool.liveCount(), 1u);
  b.release();
  EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(MessagePool, MoveAssignReleasesTheOverwrittenMessage) {
  MessagePool pool;
  PooledMessage a = pool.acquire(makeMsg(0x40));
  PooledMessage b = pool.acquire(makeMsg(0x80));
  b = std::move(a);  // b's original node must go back to the pool
  EXPECT_EQ(pool.liveCount(), 1u);
  EXPECT_EQ(b->addr, 0x40u);
}

TEST(MessagePool, DefaultHandleIsEmpty) {
  PooledMessage pm;
  EXPECT_FALSE(static_cast<bool>(pm));
  pm.release();  // no pool attached: no-op
}

}  // namespace
}  // namespace dvmc
