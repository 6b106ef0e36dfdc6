#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local void* tls_buffer_owner = nullptr;
thread_local void* tls_buffer = nullptr;
thread_local std::uint64_t tls_current_span = 0;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  if (tls_buffer_owner != this) {
    auto buffer = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->thread = buffers_.size() + 1;
    buffer->spans.reserve(1024);
    tls_buffer = buffer.get();
    tls_buffer_owner = this;
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<Buffer*>(tls_buffer);
}

std::uint64_t Tracer::next_id() {
  Buffer& b = local();
  return (b.thread << 40) | ++b.next;
}

void Tracer::record(const Span& span) {
  if (kept_.fetch_add(1, std::memory_order_relaxed) < kMaxSpans) {
    local().spans.push_back(span);
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t Tracer::record(const char* name, std::uint64_t start_ns,
                             std::uint64_t end_ns, std::uint64_t parent,
                             std::uint64_t request) {
  if (!enabled()) return 0;
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.id = next_id();
  s.parent = parent;
  s.request = request;
  record(s);
  return s.id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  out.flush();
  return out.good();
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.request = request;
  span_.id = t.next_id();
  span_.parent = tls_current_span;
  tls_current_span = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  tls_current_span = span_.parent;
  Tracer::instance().record(span_);
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    const double total = static_cast<double>(s.end_ns - s.start_ns);
    double covered = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent's.
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const std::size_t c : it->second) {
        const std::uint64_t a = std::max(spans[c].start_ns, s.start_ns);
        const std::uint64_t b = std::min(spans[c].end_ns, s.end_ns);
        if (a < b) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_a = 0, cur_b = 0;
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (open && a <= cur_b) {
          cur_b = std::max(cur_b, b);
          continue;
        }
        if (open) covered += static_cast<double>(cur_b - cur_a);
        cur_a = a;
        cur_b = b;
        open = true;
      }
      if (open) covered += static_cast<double>(cur_b - cur_a);
    }
    LayerTime& lt = out[s.name];
    ++lt.count;
    lt.total_ns += total;
    lt.self_ns += total - covered;
    lt.total_each_ns.push_back(total);
  }
  return out;
}

}  // namespace perfbench
