#include "serve/request_io.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

#include "fim/fimi_io.hpp"
#include "fim/parse_util.hpp"

namespace serve {

namespace {

[[noreturn]] void fail(int line_no, const std::string& msg) {
  throw std::invalid_argument("line " + std::to_string(line_no) + ": " + msg);
}

/// Splits one line into key=value tokens. Values may be double-quoted to
/// contain spaces; there is no escape syntax (a path with a double quote
/// in it is not representable, which FIMI paths never need).
std::vector<std::pair<std::string, std::string>> tokenize(
    const std::string& line, int line_no) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  // Files written on Windows arrive with CRLF endings through getline;
  // without this the '\r' would contaminate the last value of every line.
  std::size_t n = line.size();
  while (n > 0 && line[n - 1] == '\r') --n;
  while (i < n) {
    while (i < n && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= n || line[i] == '#') break;
    const std::size_t key_start = i;
    while (i < n && line[i] != '=' && line[i] != ' ' && line[i] != '\t') ++i;
    if (i >= n || line[i] != '=')
      fail(line_no, "expected key=value, got '" +
                        line.substr(key_start, i - key_start) + "'");
    std::string key = line.substr(key_start, i - key_start);
    if (key.empty()) fail(line_no, "empty key");
    ++i;  // '='
    std::string value;
    if (i < n && line[i] == '"') {
      ++i;
      const std::size_t val_start = i;
      while (i < n && line[i] != '"') ++i;
      if (i >= n) fail(line_no, "unterminated quote in value of '" + key + "'");
      value = line.substr(val_start, i - val_start);
      ++i;  // closing quote
    } else {
      const std::size_t val_start = i;
      while (i < n && line[i] != ' ' && line[i] != '\t') ++i;
      value = line.substr(val_start, i - val_start);
    }
    out.emplace_back(std::move(key), std::move(value));
  }
  return out;
}

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_field(std::string& out, const char* key, const std::string& value,
                  bool& first) {
  if (!first) out += ",";
  first = false;
  out += "\"";
  out += key;
  out += "\":\"";
  append_escaped(out, value);
  out += "\"";
}

void append_number(std::string& out, const char* key, double value,
                   bool& first) {
  if (!first) out += ",";
  first = false;
  char buf[64];
  if (value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%lld", key,
                  static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "\"%s\":%.3f", key, value);
  }
  out += buf;
}

}  // namespace

bool parse_request_line(const std::string& line, int line_no,
                        MiningRequest& out) {
  const auto tokens = tokenize(line, line_no);
  if (tokens.empty()) return false;

  MiningRequest req;
  std::unordered_set<std::string> seen;
  for (const auto& [key, value] : tokens) {
    if (!seen.insert(key).second) fail(line_no, "duplicate key '" + key + "'");
    if (key == "id") {
      req.id = value;
    } else if (key == "dataset") {
      req.dataset = value;
    } else if (key == "algo") {
      req.algo = value;
    } else if (key == "support") {
      if (!fim::parse_support_ratio(value.c_str(), req.min_support_ratio))
        fail(line_no, "support must be a finite value in (0, 1], got '" +
                          value + "'");
    } else if (key == "count") {
      std::uint64_t v = 0;
      if (!fim::parse_u64_strict(value.c_str(), v) || v == 0 ||
          v > 0xffffffffull)
        fail(line_no,
             "count must be an integer in [1, 2^32), got '" + value + "'");
      req.min_support_abs = static_cast<fim::Support>(v);
    } else if (key == "max-size") {
      std::uint64_t v = 0;
      if (!fim::parse_u64_strict(value.c_str(), v))
        fail(line_no, "max-size must be an unsigned integer, got '" + value +
                          "'");
      req.max_itemset_size = static_cast<std::size_t>(v);
    } else if (key == "topk") {
      std::uint64_t v = 0;
      if (!fim::parse_u64_strict(value.c_str(), v) || v == 0)
        fail(line_no, "topk must be a positive integer, got '" + value + "'");
      req.top_k = static_cast<std::size_t>(v);
    } else if (key == "rules") {
      if (!fim::parse_confidence(value.c_str(), req.rules_confidence))
        fail(line_no, "rules confidence must be a finite value in [0, 1], "
                      "got '" + value + "'");
    } else if (key == "deadline-ms") {
      if (!fim::parse_positive(value.c_str(), req.deadline_ms))
        fail(line_no, "deadline-ms must be a positive number, got '" + value +
                          "'");
    } else if (key == "out") {
      req.out_path = value;
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (req.dataset.empty()) fail(line_no, "request has no dataset=");
  if (req.top_k == 0 && req.min_support_ratio == 0 && req.min_support_abs == 0)
    fail(line_no, "request needs support=, count=, or topk=");
  if (req.id.empty()) req.id = "req-" + std::to_string(line_no);
  out = std::move(req);
  return true;
}

std::vector<RequestFileEntry> parse_request_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw fim::IoError("cannot open request file: " + path);
  std::vector<RequestFileEntry> entries;
  std::string line;
  int line_no = 0;
  while (std::getline(f, line)) {
    ++line_no;
    RequestFileEntry e;
    e.line_no = line_no;
    try {
      if (!parse_request_line(line, line_no, e.request)) continue;
      e.valid = true;
    } catch (const std::invalid_argument& err) {
      e.valid = false;
      e.error = err.what();
      // A malformed line still answers under a correlation id so callers
      // can match the kInvalid result back to their input.
      e.request.id = "req-" + std::to_string(line_no);
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

std::string to_json_line(const MiningResult& r) {
  std::string out = "{";
  bool first = true;
  append_field(out, "id", r.id, first);
  append_field(out, "status", to_string(r.status), first);
  append_number(out, "exit_code", exit_code(r.status), first);
  if (!r.error.empty()) append_field(out, "error", r.error, first);
  if (!r.algo.empty()) append_field(out, "algo", r.algo, first);
  if (!r.planner_reason.empty())
    append_field(out, "planner_reason", r.planner_reason, first);
  append_number(out, "itemsets", static_cast<double>(r.itemsets.size()), first);
  if (r.num_rules > 0)
    append_number(out, "rules", static_cast<double>(r.num_rules), first);
  if (r.truncated_at_level > 0)
    append_number(out, "truncated_at_level",
                  static_cast<double>(r.truncated_at_level), first);
  if (!r.stop_reason.empty())
    append_field(out, "stop_reason", r.stop_reason, first);
  if (r.retry_after_ms > 0)
    append_number(out, "retry_after_ms", r.retry_after_ms, first);
  if (r.hedges > 0)
    append_number(out, "hedges", static_cast<double>(r.hedges), first);
  append_number(out, "transactions", static_cast<double>(r.transactions),
                first);
  append_number(out, "queue_ms", r.queue_ms, first);
  append_number(out, "exec_ms", r.exec_ms, first);
  append_number(out, "host_ms", r.host_ms, first);
  append_number(out, "device_ms", r.device_ms, first);
  append_number(out, "db_cache_hit", r.db_cache_hit ? 1 : 0, first);
  append_number(out, "layout_cache_hit", r.layout_cache_hit ? 1 : 0, first);
  append_number(out, "deduped", r.deduped ? 1 : 0, first);
  out += "}";
  return out;
}

std::string to_json(const ServiceStats& s) {
  std::string out = "{";
  bool first = true;
  append_number(out, "submitted", static_cast<double>(s.submitted), first);
  append_number(out, "completed", static_cast<double>(s.completed), first);
  append_number(out, "rejected", static_cast<double>(s.rejected), first);
  append_number(out, "shed", static_cast<double>(s.shed), first);
  append_number(out, "deduped", static_cast<double>(s.deduped), first);
  append_number(out, "truncated", static_cast<double>(s.truncated), first);
  append_number(out, "errors", static_cast<double>(s.errors), first);
  append_number(out, "hedges", static_cast<double>(s.hedges), first);
  append_number(out, "cancelled", static_cast<double>(s.cancelled), first);
  append_number(out, "expired_in_queue",
                static_cast<double>(s.expired_in_queue), first);
  out += ",\"queue_wait_ms_buckets\":[";
  for (std::size_t i = 0; i < s.queue_wait.buckets.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(s.queue_wait.buckets[i]);
  }
  out += "]";
  append_number(out, "db_cache_hits", static_cast<double>(s.cache.db_hits),
                first);
  append_number(out, "db_cache_misses",
                static_cast<double>(s.cache.db_misses), first);
  append_number(out, "layout_cache_hits",
                static_cast<double>(s.cache.layout_hits), first);
  append_number(out, "layout_cache_misses",
                static_cast<double>(s.cache.layout_misses), first);
  append_number(out, "cache_evictions",
                static_cast<double>(s.cache.evictions), first);
  append_number(out, "builds_coalesced",
                static_cast<double>(s.cache.builds_coalesced), first);
  out += ",\"admission\":{";
  bool f3 = true;
  append_number(out, "admitted", static_cast<double>(s.admission.admitted),
                f3);
  append_number(out, "shed", static_cast<double>(s.admission.shed), f3);
  append_number(out, "bytes_inflight",
                static_cast<double>(s.admission.bytes_inflight), f3);
  append_number(out, "inflight", static_cast<double>(s.admission.inflight),
                f3);
  out += "}}";
  return out;
}

}  // namespace serve
