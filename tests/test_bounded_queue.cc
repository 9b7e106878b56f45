/**
 * @file
 * Tests for BoundedQueue, the backpressure primitive under every
 * serving queue. Pinned contracts: FIFO order; tryPush reports Full
 * without consuming the item; close() drains what was accepted,
 * then reports exhaustion, and wakes every blocked producer with its
 * item untouched; tryPop/popFor never block past their budget; and
 * tryPushAll admits a batch all-or-nothing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/bounded_queue.hh"

namespace ccsa
{
namespace
{

using std::chrono::microseconds;
using std::chrono::milliseconds;

TEST(BoundedQueue, FifoPushPop)
{
    BoundedQueue<int> q(4);
    EXPECT_EQ(q.push(1), QueuePush::Ok);
    EXPECT_EQ(q.push(2), QueuePush::Ok);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, TryPushReportsFullWithoutConsumingItem)
{
    BoundedQueue<std::string> q(1);
    std::string a = "first", b = "second";
    EXPECT_EQ(q.tryPush(std::move(a)), QueuePush::Ok);
    EXPECT_EQ(q.tryPush(std::move(b)), QueuePush::Full);
    EXPECT_EQ(b, "second"); // rejected item left untouched
    EXPECT_EQ(q.pop().value(), "first");
    EXPECT_EQ(q.tryPush(std::move(b)), QueuePush::Ok);
}

TEST(BoundedQueue, CloseDrainsRemainingThenReportsExhaustion)
{
    BoundedQueue<int> q(4);
    ASSERT_EQ(q.push(10), QueuePush::Ok);
    ASSERT_EQ(q.push(20), QueuePush::Ok);
    q.close();
    EXPECT_EQ(q.push(30), QueuePush::Closed);
    EXPECT_EQ(q.tryPush(40), QueuePush::Closed);
    EXPECT_EQ(q.pop().value(), 10);
    EXPECT_EQ(q.pop().value(), 20);
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_FALSE(q.popFor(microseconds(100)).has_value());
}

TEST(BoundedQueue, TryPopNeverBlocks)
{
    BoundedQueue<int> q(2);
    EXPECT_FALSE(q.tryPop().has_value());
    ASSERT_EQ(q.push(5), QueuePush::Ok);
    EXPECT_EQ(q.tryPop().value(), 5);
    q.close();
    EXPECT_FALSE(q.tryPop().has_value());
}

TEST(BoundedQueue, PopForTimesOutOnEmptyQueue)
{
    BoundedQueue<int> q(2);
    EXPECT_FALSE(q.popFor(microseconds(500)).has_value());
    ASSERT_EQ(q.push(7), QueuePush::Ok);
    EXPECT_EQ(q.popFor(microseconds(500)).value(), 7);
}

TEST(BoundedQueue, BlockedProducerUnblocksWhenSpaceFrees)
{
    BoundedQueue<int> q(1);
    ASSERT_EQ(q.push(1), QueuePush::Ok);
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_EQ(q.push(2), QueuePush::Ok); // blocks until pop
        pushed = true;
    });
    std::this_thread::sleep_for(milliseconds(20));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(q.pop().value(), 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, BlockedProducerUnblocksOnClose)
{
    BoundedQueue<int> q(1);
    ASSERT_EQ(q.push(1), QueuePush::Ok);
    std::thread producer(
        [&] { EXPECT_EQ(q.push(2), QueuePush::Closed); });
    std::this_thread::sleep_for(milliseconds(20));
    q.close();
    producer.join();
}

TEST(BoundedQueue, CloseWakesEveryBlockedProducerItemsUntouched)
{
    // The shutdown contract from bounded_queue.hh: close() wakes ALL
    // parked producers (not just one), each returns Closed with its
    // item still in the caller's hands, and already-accepted items
    // stay poppable (drain, not shed).
    BoundedQueue<std::unique_ptr<int>> q(1);
    ASSERT_EQ(q.push(std::make_unique<int>(0)), QueuePush::Ok);

    constexpr int kProducers = 6;
    std::atomic<int> closedCount{0};
    std::atomic<int> itemsIntact{0};
    std::vector<std::thread> producers;
    for (int p = 1; p <= kProducers; ++p) {
        producers.emplace_back([&, p] {
            auto item = std::make_unique<int>(p);
            if (q.push(std::move(item)) == QueuePush::Closed) {
                closedCount++;
                // Closed must leave the item unmoved — the serving
                // layers rely on this to fail the request with an
                // attributed status instead of losing it.
                if (item != nullptr && *item == p)
                    itemsIntact++;
            }
        });
    }
    std::this_thread::sleep_for(milliseconds(30));
    q.close();
    for (std::thread& t : producers)
        t.join();
    EXPECT_EQ(closedCount.load(), kProducers);
    EXPECT_EQ(itemsIntact.load(), kProducers);

    // Drain semantics: the one accepted item survives the close.
    auto drained = q.pop();
    ASSERT_TRUE(drained.has_value());
    EXPECT_EQ(**drained, 0);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, TryPushAllIsAllOrNothing)
{
    BoundedQueue<int> q(3);
    std::vector<int> first{1, 2};
    EXPECT_EQ(q.tryPushAll(first), QueuePush::Ok);
    EXPECT_EQ(q.size(), 2u);

    // Two items into one free slot: nothing may enter.
    std::vector<int> overflow{3, 4};
    EXPECT_EQ(q.tryPushAll(overflow), QueuePush::Full);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(overflow, (std::vector<int>{3, 4})); // untouched

    std::vector<int> last{3};
    EXPECT_EQ(q.tryPushAll(last), QueuePush::Ok);
    EXPECT_EQ(q.pop().value(), 1); // FIFO preserved across batches
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.pop().value(), 3);

    std::vector<int> none;
    EXPECT_EQ(q.tryPushAll(none), QueuePush::Ok); // empty is a no-op
    EXPECT_EQ(q.size(), 0u);

    q.close();
    std::vector<int> late{9};
    EXPECT_EQ(q.tryPushAll(late), QueuePush::Closed);
    EXPECT_EQ(late, (std::vector<int>{9}));
}

} // namespace
} // namespace ccsa
