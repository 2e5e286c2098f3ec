#include "tcmalloc/central_free_list.h"

#include <bit>

#include "common/logging.h"

namespace wsc::tcmalloc {

CentralFreeList::CentralFreeList(int cls, const SizeClassInfo& info,
                                 int num_lists, SpanSource* source)
    : cls_(cls),
      info_(info),
      num_lists_(num_lists),
      source_(source),
      lists_(num_lists) {
  WSC_CHECK_GE(num_lists, 1);
  WSC_CHECK(source != nullptr);
}

CentralFreeList::~CentralFreeList() {
  // Spans still owned at teardown (process exit) are metadata we must free.
  auto drain = [](SpanList& list) {
    while (!list.empty()) delete list.PopFront();
  };
  for (SpanList& list : lists_) drain(list);
  drain(full_);
}

int CentralFreeList::ListIndexFor(int live) const {
  if (num_lists_ == 1) return 0;
  if (live <= 0) return num_lists_ - 1;
  // Paper: index = max(0, L - log2(A)); with zero-based lists this is
  // max(0, (L-1) - floor(log2(A))), so spans with fewer live allocations
  // land in higher-indexed lists and fine granularity is preserved at the
  // low-occupancy end (spans with 132 or 255 live allocations share a list).
  int log2_live = std::bit_width(static_cast<unsigned>(live)) - 1;
  int idx = (num_lists_ - 1) - log2_live;
  return idx < 0 ? 0 : idx;
}

void CentralFreeList::Relist(Span* span) {
  int target;
  if (span->full()) {
    target = num_lists_;  // sentinel: the full_ list
  } else {
    target = ListIndexFor(span->live_objects());
  }
  if (span->list_index == target) return;
  if (span->list_index == num_lists_) {
    full_.Remove(span);
  } else if (span->list_index >= 0) {
    lists_[span->list_index].Remove(span);
  }
  if (target == num_lists_) {
    full_.PushFront(span);
  } else {
    lists_[target].PushFront(span);
  }
  span->list_index = target;
}

int CentralFreeList::RemoveRange(uintptr_t* out, int n) {
  int produced = 0;
  while (produced < n) {
    // Allocate from the most-occupied spans first (lowest list index). In
    // the baseline (num_lists_ == 1) this degenerates to "front of the
    // single list", i.e. whichever span happens to be first.
    Span* span = nullptr;
    for (SpanList& list : lists_) {
      if (!list.empty()) {
        span = list.front();
        break;
      }
    }
    if (span == nullptr) {
      span = source_->NewSpan(cls_);
      if (span == nullptr) {
        // The page heap cannot grow; hand back what we produced so far and
        // let the caller degrade (partial batch, emergency reclaim).
        ++span_fetch_failures_;
        break;
      }
      WSC_CHECK_EQ(span->size_class(), cls_);
      WSC_CHECK(span->empty());
      span->list_index = -1;
      ++num_spans_;
      ++stats_.fetched_spans;
      free_objects_ += static_cast<size_t>(span->capacity());
      lists_[ListIndexFor(0)].PushFront(span);
      span->list_index = ListIndexFor(0);
    }
    while (produced < n && !span->full()) {
      out[produced++] = span->AllocateObject();
      --free_objects_;
      ++stats_.allocations;
    }
    Relist(span);
  }
  return produced;
}

void CentralFreeList::InsertObject(Span* span, uintptr_t obj) {
  WSC_CHECK(span != nullptr);
  WSC_CHECK_EQ(span->size_class(), cls_);
  span->FreeObject(obj);
  ++free_objects_;
  ++stats_.deallocations;
  if (span->empty()) {
    // Every object came home: the span can be returned to the page heap.
    if (span->list_index == num_lists_) {
      full_.Remove(span);
    } else if (span->list_index >= 0) {
      lists_[span->list_index].Remove(span);
    }
    span->list_index = -1;
    WSC_CHECK_GE(free_objects_, static_cast<size_t>(span->capacity()));
    free_objects_ -= static_cast<size_t>(span->capacity());
    --num_spans_;
    ++stats_.returned_spans;
    returned_span_ids_.push_back(span->span_id);
    source_->ReturnSpan(span);
    return;
  }
  Relist(span);
}

size_t CentralFreeList::num_live_spans_with_free_objects() const {
  size_t n = 0;
  for (const SpanList& list : lists_) n += list.size();
  return n;
}

double CentralFreeList::SpanReturnRate() const {
  if (stats_.fetched_spans == 0) return 0.0;
  return static_cast<double>(stats_.returned_spans) /
         static_cast<double>(stats_.fetched_spans);
}

std::vector<CentralFreeList::SpanSnapshot> CentralFreeList::SnapshotSpans()
    const {
  std::vector<SpanSnapshot> snapshot;
  snapshot.reserve(num_spans_);
  for (const SpanList& list : lists_) {
    for (Span* s = list.front(); s != nullptr; s = s->next) {
      snapshot.push_back({s->span_id, s->live_objects()});
    }
  }
  for (Span* s = full_.front(); s != nullptr; s = s->next) {
    snapshot.push_back({s->span_id, s->live_objects()});
  }
  return snapshot;
}

std::vector<uint64_t> CentralFreeList::DrainReturnedSpanIds() {
  std::vector<uint64_t> out;
  out.swap(returned_span_ids_);
  return out;
}

void CentralFreeList::ContributeTelemetry(
    telemetry::MetricRegistry& registry) const {
  registry.ExportCounter("central_free_list", "fetched_spans",
                         stats_.fetched_spans);
  registry.ExportCounter("central_free_list", "returned_spans",
                         stats_.returned_spans);
  registry.ExportCounter("central_free_list", "object_allocations",
                         stats_.allocations);
  registry.ExportCounter("central_free_list", "object_deallocations",
                         stats_.deallocations);
  registry.ExportGauge("central_free_list", "free_object_bytes",
                       static_cast<double>(FreeObjectBytes()));
  registry.ExportGauge("central_free_list", "spans",
                       static_cast<double>(num_spans_));
  registry.ExportGauge("central_free_list", "live_spans_with_free_objects",
                       static_cast<double>(num_live_spans_with_free_objects()));
  registry.ExportCounter("central_free_list", "span_fetch_failures",
                         span_fetch_failures_);
}

}  // namespace wsc::tcmalloc
