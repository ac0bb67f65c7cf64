#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace simbench
{

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int
SpanRecorder::open(std::string name, std::vector<uint64_t> requestIds)
{
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.requestIds = std::move(requestIds);
    span.startNs = nowNs();
    spans_.push_back(std::move(span));
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
}

void
SpanRecorder::close(int id)
{
    spans_[size_t(id)].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

std::vector<int64_t>
SpanRecorder::selfNs() const
{
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].durationNs();
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            self[size_t(span.parent)] -= span.durationNs();
    }
    return self;
}

bool
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out.is_open())
        return false;
    const std::vector<int64_t> self = selfNs();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"parent\": " << s.parent
            << ", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs
            << ", \"self_ns\": " << self[i];
        if (!s.requestIds.empty()) {
            out << ", \"request_ids\": [";
            for (size_t r = 0; r < s.requestIds.size(); ++r)
                out << (r ? ", " : "") << s.requestIds[r];
            out << "]";
        }
        out << "}\n";
    }
    return bool(out);
}

} // namespace simbench
