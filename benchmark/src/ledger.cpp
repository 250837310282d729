#include "ledger.hpp"

#include <algorithm>
#include <map>

namespace spmvml::bench {

std::vector<LayerRow> layer_table(const std::vector<obs::TraceEvent>& events,
                                  std::string_view prefix) {
  struct Span {
    const obs::TraceEvent* event;
    double end_us;
    double covered_until_us;  // children are visited in start order
    double covered_us = 0.0;
  };
  std::map<std::pair<int, std::string>, std::vector<const obs::TraceEvent*>>
      by_track;
  for (const auto& e : events) {
    if (e.phase != 'X' || !std::string_view(e.name).starts_with(prefix))
      continue;
    std::string id;
    for (const auto& a : e.args)
      if (a.key == "id") id = a.json;
    by_track[{e.tid, id}].push_back(&e);
  }

  std::map<std::string, LayerRow> rows;
  const auto close = [&rows](const Span& s) {
    LayerRow& row = rows[s.event->name];
    row.name = s.event->name;
    ++row.count;
    row.total_ms += s.event->dur_us / 1e3;
    row.self_ms += std::max(0.0, s.event->dur_us - s.covered_us) / 1e3;
  };

  for (auto& [track, list] : by_track) {
    // Parents before their children: by start, longer span first.
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<Span> open;
    for (const obs::TraceEvent* e : list) {
      const double end = e->ts_us + e->dur_us;
      while (!open.empty() && !(e->ts_us >= open.back().event->ts_us &&
                                end <= open.back().end_us)) {
        close(open.back());
        open.pop_back();
      }
      if (!open.empty()) {
        Span& parent = open.back();
        const double from = std::max(e->ts_us, parent.covered_until_us);
        if (end > from) parent.covered_us += end - from;
        parent.covered_until_us = std::max(parent.covered_until_us, end);
      }
      open.push_back({e, end, e->ts_us});
    }
    while (!open.empty()) {
      close(open.back());
      open.pop_back();
    }
  }

  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

double self_ms(const std::vector<LayerRow>& rows, std::string_view name) {
  for (const auto& r : rows)
    if (r.name == name) return r.self_ms;
  return 0.0;
}

double total_ms(const std::vector<LayerRow>& rows, std::string_view name) {
  for (const auto& r : rows)
    if (r.name == name) return r.total_ms;
  return 0.0;
}

}  // namespace spmvml::bench
