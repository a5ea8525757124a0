// Tests for the thread-local scratch pool: borrow/return semantics, bucket
// reuse guarantees, zero-fill behavior, move semantics, a concurrent
// stress run (exercised under TSan in the sanitize CI job) proving that
// per-thread free lists never alias a buffer across simultaneous borrows,
// and a steady-state eager training loop that must never miss the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "reffil/autograd/ops.hpp"
#include "reffil/nn/backbone.hpp"
#include "reffil/tensor/ops.hpp"
#include "reffil/tensor/pool.hpp"
#include "reffil/tensor/tensor.hpp"
#include "reffil/util/obs.hpp"
#include "reffil/util/rng.hpp"
#include "reffil/util/thread_pool.hpp"

namespace AG = reffil::autograd;
namespace T = reffil::tensor;
namespace pool = reffil::tensor::pool;

namespace {

/// Starts each test from a cold pool so hit/miss deltas are deterministic.
struct ColdPool {
  ColdPool() { pool::clear_thread_cache(); }
  ~ColdPool() { pool::clear_thread_cache(); }
};

}  // namespace

TEST(ScratchPool, BorrowHasRequestedShapeAndZeros) {
  ColdPool cold;
  pool::Scratch s({3, 5});
  EXPECT_EQ(s->shape(), (T::Shape{3, 5}));
  for (std::size_t i = 0; i < s->numel(); ++i) {
    EXPECT_EQ(s->at(i), 0.0f) << "element " << i;
  }
}

TEST(ScratchPool, ReleasedBufferIsReusedAndRezeroed) {
  ColdPool cold;
  const auto before = pool::thread_stats();
  {
    pool::Scratch s({16, 16});
    std::fill(s->begin(), s->end(), 7.0f);  // dirty the buffer
  }
  // Same size class again: must be a hit, and must come back zeroed.
  pool::Scratch s2({16, 16});
  const auto after = pool::thread_stats();
  EXPECT_EQ(after.misses, before.misses + 1);  // only the first borrow missed
  EXPECT_EQ(after.hits, before.hits + 1);
  for (std::size_t i = 0; i < s2->numel(); ++i) {
    ASSERT_EQ(s2->at(i), 0.0f) << "element " << i;
  }
}

TEST(ScratchPool, SmallerRequestHitsLargerBucket) {
  ColdPool cold;
  { pool::Scratch s({256}); }  // parks a 256-float buffer (bucket 8)
  const auto before = pool::thread_stats();
  // 200 rounds up to bucket 8 too, so the parked buffer satisfies it.
  pool::Scratch s2({200});
  const auto after = pool::thread_stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(s2->numel(), 200u);
}

TEST(ScratchPool, UnzeroedBorrowIsWritable) {
  ColdPool cold;
  pool::Scratch s({4, 4}, /*zero=*/false);
  // Contents are unspecified; the contract is only that every element is
  // writable at the requested size.
  std::fill(s->begin(), s->end(), 3.5f);
  for (std::size_t i = 0; i < s->numel(); ++i) ASSERT_EQ(s->at(i), 3.5f);
}

TEST(ScratchPool, MoveTransfersOwnershipWithoutDoubleRelease) {
  ColdPool cold;
  const auto before = pool::thread_stats();
  {
    pool::Scratch a({64});
    std::fill(a->begin(), a->end(), 2.0f);
    pool::Scratch b(std::move(a));
    EXPECT_EQ(b->numel(), 64u);
    EXPECT_EQ(b->at(0), 2.0f);
  }  // exactly one buffer must return to the free list
  pool::Scratch c({64});
  pool::Scratch d({64});
  const auto after = pool::thread_stats();
  EXPECT_EQ(after.hits, before.hits + 1);    // c reuses the single release
  EXPECT_EQ(after.misses, before.misses + 2);  // a missed cold; d misses again
}

TEST(ScratchPool, MovedOutInnerTensorLeavesReleaseWithScratch) {
  ColdPool cold;
  const auto before = pool::thread_stats();
  {
    pool::Scratch s({64});
    std::fill(s->begin(), s->end(), 5.0f);
    // Moving the wrapped Tensor transfers only the borrowed view; the
    // Scratch keeps buffer ownership and must release it exactly once.
    T::Tensor view = std::move(s.tensor());
    EXPECT_EQ(view.numel(), 64u);
    EXPECT_EQ(view.at(0), 5.0f);
  }  // view dies first (reverse declaration order), then s releases
  // The released buffer must be a real, usable allocation — not an empty
  // husk left behind by the move — so the next same-class borrow hits.
  pool::Scratch again({64});
  std::fill(again->begin(), again->end(), 1.0f);
  const auto after = pool::thread_stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(ScratchPool, ClearThreadCacheDropsRetainedBytes) {
  ColdPool cold;
  { pool::Scratch s({1024}); }
  EXPECT_GT(pool::thread_stats().retained_bytes, 0u);
  pool::clear_thread_cache();
  EXPECT_EQ(pool::thread_stats().retained_bytes, 0u);
}

TEST(ScratchPool, ZeroSizedShapeIsSafe) {
  ColdPool cold;
  pool::Scratch s({0, 7});
  EXPECT_EQ(s->numel(), 0u);
}

// Concurrent stress: every pool thread (plus the caller) repeatedly borrows
// two buffers, fills them with a value derived from its task index, spins a
// little, and checks nothing else scribbled on them. Run under TSan this
// proves acquire/release touch no shared state; the value checks prove two
// live borrows never alias the same storage even within one thread.
TEST(ScratchPool, ConcurrentBorrowsNeverAlias) {
  auto& tp = reffil::util::global_thread_pool();
  const std::size_t tasks = std::max<std::size_t>(8, tp.size() * 4);
  std::atomic<int> failures{0};
  tp.parallel_for(tasks, [&](std::size_t t) {
    for (int round = 0; round < 50; ++round) {
      const float va = static_cast<float>(t * 1000 + round);
      const float vb = va + 0.5f;
      pool::Scratch a({33}, /*zero=*/false);
      pool::Scratch b({33}, /*zero=*/false);
      if (a->begin() == b->begin()) failures.fetch_add(1);
      std::fill(a->begin(), a->end(), va);
      std::fill(b->begin(), b->end(), vb);
      for (std::size_t i = 0; i < 33; ++i) {
        if (a->at(i) != va || b->at(i) != vb) failures.fetch_add(1);
      }
    }
    pool::clear_thread_cache();  // leave worker threads with empty lists
  });
  EXPECT_EQ(failures.load(), 0);
}

// Every eager train step rebuilds its graph, so every op output and
// backward temporary is borrowed afresh. Once the free lists are
// warm, a steady-state step must be served entirely from them: one miss per
// step means a bucket-rounding bug sends some borrow to the allocator every
// time (the bug this test was written to catch).
TEST(ScratchPool, SteadyStateEagerStepsNeverMiss) {
  reffil::nn::PromptNetConfig config;
  config.num_classes = 4;
  reffil::util::Rng rng(7), data_rng(3);
  reffil::nn::PromptNet net(config, rng);
  const std::vector<T::Tensor> images = {T::randn({1, 16, 16}, data_rng),
                                         T::randn({1, 16, 16}, data_rng)};
  const std::vector<std::size_t> labels = {1, 3};
  const auto step = [&] {
    for (auto& p : net.parameters()) p->zero_grad();
    AG::Var total;
    for (std::size_t i = 0; i < images.size(); ++i) {
      const AG::Var ce =
          AG::cross_entropy_logits(net.forward(images[i]).logits, {labels[i]});
      total = (i == 0) ? ce : AG::add(total, ce);
    }
    AG::backward(
        AG::mul_scalar(total, 1.0f / static_cast<float>(images.size())));
  };
  const auto misses = [] {
    const auto snap = reffil::obs::Registry::instance().snapshot();
    const auto it = snap.counters.find("tensor.pool.miss");
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  for (int i = 0; i < 3; ++i) step();  // fault in every bucket the step uses
  const std::uint64_t before = misses();
  for (int i = 0; i < 100; ++i) step();
  EXPECT_EQ(misses(), before)
      << "steady-state eager steps must reuse pooled scratch";
}

// The tape holds no pooled buffer: conv2d keeps no column matrix, and every
// forward intermediate of a PromptNet forward pass (the padded conv input,
// scratch rows) goes back to the free list before the op returns. So while
// a forward graph is alive, the bytes parked in this thread's free lists are
// exactly what they were before it was built. (A column matrix held by the
// conv nodes would be borrowed for the life of the tape and show up here.)
TEST(ConvFootprint, PromptNetForwardGraphHoldsNoPoolBuffer) {
  reffil::nn::PromptNetConfig config;
  config.num_classes = 4;
  reffil::util::Rng rng(7), data_rng(5);
  reffil::nn::PromptNet net(config, rng);
  const T::Tensor image = T::randn({1, 16, 16}, data_rng);
  for (int i = 0; i < 2; ++i) {  // fault in every bucket forward + backward use
    AG::backward(AG::cross_entropy_logits(net.forward(image).logits, {1}));
  }
  const std::size_t before = pool::thread_stats().retained_bytes;
  ASSERT_GT(before, 0u);
  {
    const auto out = net.forward(image);
    ASSERT_EQ(out.logits->value().numel(), config.num_classes);
    EXPECT_EQ(pool::thread_stats().retained_bytes, before)
        << "a live forward graph holds pooled scratch";
  }
  EXPECT_EQ(pool::thread_stats().retained_bytes, before);
}
