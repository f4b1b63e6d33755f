#include "src/workload/request_queue.h"

#include <algorithm>

namespace optilog {

RequestQueue::Admit RequestQueue::Push(const RequestRef& req, SimTime now) {
  ClientWindow& w = windows_[{req.client, req.shard}];
  if (req.request_id < w.floor || w.seen.count(req.request_id) > 0) {
    ++counts_.requests_deduped;
    return Admit::kDuplicate;
  }
  if (queue_.size() >= policy_.max_queue) {
    ++counts_.requests_dropped;
    return Admit::kDropped;
  }
  w.seen.insert(req.request_id);
  // Keep the window bounded: requests commit roughly FIFO per client, so the
  // smallest ids are the ones whose retries can no longer be in flight.
  while (w.seen.size() > 1024) {
    w.floor = *w.seen.begin() + 1;
    w.seen.erase(w.seen.begin());
  }
  queue_.push_back(Entry{req, now});
  ++counts_.requests_accepted;
  counts_.peak_queue_depth =
      std::max(counts_.peak_queue_depth, queue_.size());
  return Admit::kAccepted;
}

void RequestQueue::Requeue(std::vector<RequestRef> batch, SimTime now) {
  for (size_t i = batch.size(); i > 0; --i) {
    queue_.push_front(Entry{batch[i - 1], now});
  }
  counts_.peak_queue_depth =
      std::max(counts_.peak_queue_depth, queue_.size());
}

std::vector<RequestRef> RequestQueue::PopBatch(SimTime now,
                                               BatchTrigger trigger) {
  std::vector<RequestRef> batch;
  const size_t take =
      std::min<size_t>(queue_.size(), policy_.max_batch);
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch.push_back(queue_.front().req);
    queue_.pop_front();
  }
  if (take > 0) {
    switch (trigger) {
      case BatchTrigger::kSize:
        ++counts_.batches_size_triggered;
        break;
      case BatchTrigger::kDeadline:
        ++counts_.batches_deadline_triggered;
        break;
      case BatchTrigger::kIdle:
        ++counts_.batches_idle_triggered;
        break;
    }
  }
  (void)now;
  return batch;
}

}  // namespace optilog
