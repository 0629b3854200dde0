// Feed (common/feed.h): synchronous fan-out in subscription order,
// whose callbacks may subscribe, unsubscribe and publish while a
// publish runs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/feed.h"

namespace catapult {
namespace {

struct Script {
    Feed<int> feed;
    std::vector<std::string> log;
    Subscription first;
    Subscription second;
    Subscription added;
};

// Each closure captures one pointer, so std::function keeps it inside
// itself: had storage growth moved the running std::function, reading
// `s` after Subscribe would read freed memory (the ASan job runs these
// tests).
TEST(Feed, CallbackMaySubscribeUnsubscribeAndPublishAgain) {
    Script s;
    s.first = s.feed.Subscribe([&s](const int& event) {
        s.log.push_back("first " + std::to_string(event));
        if (event != 1) return;
        s.added = s.feed.Subscribe([&s](const int& inner) {
            s.log.push_back("added " + std::to_string(inner));
        });
        s.second.Reset();
        s.feed.Publish(2);
        s.log.push_back("first done");
    });
    s.second = s.feed.Subscribe([&s](const int& event) {
        s.log.push_back("second " + std::to_string(event));
    });

    s.feed.Publish(1);
    // The added subscriber receives the nested publish and, appended
    // behind the walk, the publish it was added in; the removed one
    // receives neither.
    EXPECT_EQ(s.log, (std::vector<std::string>{"first 1", "first 2",
                                               "added 2", "first done",
                                               "added 1"}));
    EXPECT_EQ(s.feed.subscriber_count(), 2);

    s.log.clear();
    s.feed.Publish(3);
    EXPECT_EQ(s.log, (std::vector<std::string>{"first 3", "added 3"}));
}

// The closure owns a string, so std::function keeps it on the heap:
// had Reset freed the running closure, reading `name` after it would
// read freed memory.
TEST(Feed, CallbackMayUnsubscribeItself) {
    Script s;
    const std::string name = "first";
    s.first = s.feed.Subscribe([&s, name](const int& event) {
        s.first.Reset();
        s.log.push_back(name + " " + std::to_string(event));
    });
    s.second = s.feed.Subscribe([&s](const int& event) {
        s.log.push_back("second " + std::to_string(event));
    });
    s.feed.Publish(1);
    s.feed.Publish(2);
    EXPECT_EQ(s.log, (std::vector<std::string>{"first 1", "second 1",
                                               "second 2"}));
    EXPECT_EQ(s.feed.subscriber_count(), 1);
}

TEST(FeedDeathTest, RejectsAnEmptyCallback) {
    Feed<int> feed;
    EXPECT_DEATH((void)feed.Subscribe(nullptr),
                 "Feed::Subscribe: empty callback");
}

}  // namespace
}  // namespace catapult
