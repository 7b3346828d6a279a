#include "workload/recorder.h"

#include <algorithm>

#include "core/trace.h"
#include "service/protocol.h"

namespace stemcp::workload {

std::unique_ptr<TraceRecorder> TraceRecorder::open(const std::string& path,
                                                   std::string* error) {
  std::unique_ptr<TraceWriter> writer = TraceWriter::open(path, error);
  if (writer == nullptr) return nullptr;
  return std::unique_ptr<TraceRecorder>(new TraceRecorder(std::move(writer)));
}

void TraceRecorder::record(const service::Request& r) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) {
    ++drops_;
    return;
  }
  const std::uint64_t now = core::Tracer::now_ns();
  if (!started_) {
    started_ = true;
    t0_ns_ = now;
  }
  // now >= t0 by the mutex (steady clock, reads ordered by the lock), but
  // clamp anyway — a non-monotone record would poison the whole file.
  const std::uint64_t offset =
      std::max(now >= t0_ns_ ? now - t0_ns_ : 0, last_offset_ns_);
  line_scratch_.clear();
  if (!service::ServiceFrontEnd::render(r, &line_scratch_)) {
    ++drops_;
    return;
  }
  if (!writer_->append(offset, line_scratch_, nullptr)) {
    // A failed write dead-latches the recorder (journal discipline): better
    // a short trace than one with a hole in the middle.
    dead_ = true;
    ++drops_;
    return;
  }
  last_offset_ns_ = offset;
  ++records_;
}

bool TraceRecorder::finish(std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool write_failed = dead_;
  dead_ = true;  // drop anything recorded after finish
  const bool closed = writer_->finish(error);
  if (write_failed) {
    if (error != nullptr && error->empty()) {
      *error = "trace recording had failed writes";
    }
    return false;
  }
  return closed;
}

TraceRecorder::Stats TraceRecorder::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{records_, drops_};
}

}  // namespace stemcp::workload
