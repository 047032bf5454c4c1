#pragma once
// Request-file parsing and result serialization for `gpapriori_cli serve`.
//
// A request file holds one request per line as space-separated key=value
// tokens; values with spaces are double-quoted. `#` starts a comment,
// blank lines are skipped. Keys:
//
//   id=NAME           correlation id (default: req-<line-number>)
//   dataset=PATH      FIMI file path or registered handle (required)
//   algo=NAME         miner registry name (default: planner's choice)
//   support=R         relative min support in (0, 1]
//   count=N           absolute min support (takes precedence over support)
//   max-size=K        stop after itemsets of size K
//   topk=K            top-K mode instead of threshold mining
//   rules=CONF        also generate rules at confidence in [0, 1]
//   deadline-ms=MS    per-request wall budget (> 0)
//   out=PATH          also write the itemsets to this file
//
// Numeric values go through the strict fim::parse_* helpers; any trailing
// garbage, domain violation, duplicate key, or unknown key makes the line
// an invalid entry naming the offending line and key, which the CLI
// answers as a kInvalid result in its place.
//
// Results are emitted one JSON object per line (JSONL), machine-parseable
// without a JSON library on either side.

#include <string>
#include <vector>

#include "serve/mining_service.hpp"

namespace serve {

/// One line of a parsed request file: either a well-formed request or the
/// parse error that explains why the line is not one.
struct RequestFileEntry {
  MiningRequest request;  ///< id is set even when !valid
  bool valid = false;
  std::string error;  ///< !valid: "line N: ..." naming the offending key
  int line_no = 0;
};

/// Parses a request file (see above), one entry per request line. A
/// malformed line becomes an invalid entry (error populated, id assigned)
/// instead of aborting the whole file — the serving path answers it as
/// kInvalid and keeps going, so one bad line in a batch cannot take down
/// the healthy requests around it. Throws fim::IoError when the file
/// itself cannot be read.
[[nodiscard]] std::vector<RequestFileEntry> parse_request_file(
    const std::string& path);

/// Parses one request line (exposed for tests). `line_no` only feeds error
/// messages. Returns false for blank/comment lines.
[[nodiscard]] bool parse_request_line(const std::string& line, int line_no,
                                      MiningRequest& out);

/// One result as a single-line JSON object:
/// {"id":..,"status":..,"exit_code":..,"algo":..,"itemsets":N,...}
[[nodiscard]] std::string to_json_line(const MiningResult& r);

/// ServiceStats as one JSON object (queue-wait histogram, shed/hedge/
/// cancel counters, cache hit rates, admission state) —
/// the `--metrics` export of `gpapriori_cli serve` and the soak harness's
/// BENCH columns.
[[nodiscard]] std::string to_json(const ServiceStats& s);

}  // namespace serve
