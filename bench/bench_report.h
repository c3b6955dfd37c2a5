// One JSON shape for every gated bench, plus the knob reader all benches share.
//
// A gated bench writes
//
//   {"bench": name, "config": {knobs}, "rows": [{one per sweep point}],
//    "summary": {derived numbers}, "compare": {row comparison},
//    "gates": [{absolute bounds}]}
//
// and tools/check_bench_regression.py checks two such files without knowing
// any bench by name (DESIGN.md §14). Each bench declares its `compare` and
// `gates` next to the workload they describe; the checker refuses a candidate
// whose declarations differ from its baseline's, so a gate changes only by an
// edit to the bench source and its committed baseline together.

#ifndef BENCH_BENCH_REPORT_H_
#define BENCH_BENCH_REPORT_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace kamino::bench {

// An unsigned integer knob from the environment; `def` when unset. An empty
// or unparsable value exits 2 instead of silently reading as 0.
inline uint64_t EnvOr(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr) {
    return def;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (*v < '0' || *v > '9' || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "invalid knobs: %s=\"%s\" is not an unsigned integer\n", name, v);
    std::exit(2);
  }
  return n;
}

// A JSON object under construction; fields print in insertion order.
class JsonObject {
 public:
  JsonObject& Str(const char* key, const std::string& v) { return Raw(key, '"' + v + '"'); }
  JsonObject& Int(const char* key, uint64_t v) { return Raw(key, std::to_string(v)); }
  JsonObject& Bool(const char* key, bool v) { return Raw(key, v ? "true" : "false"); }
  // Fixed `decimals` keep reruns diffable; negative prints the shortest form.
  JsonObject& Num(const char* key, double v, int decimals = -1) {
    char buf[64];
    if (decimals < 0) {
      std::snprintf(buf, sizeof(buf), "%g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    }
    return Raw(key, buf);
  }
  JsonObject& Obj(const char* key, const JsonObject& v) { return Raw(key, v.str()); }
  JsonObject& List(const char* key, const std::vector<const char*>& items) {
    std::string s;
    for (const char* item : items) {
      s += (s.empty() ? "\"" : ", \"") + std::string(item) + '"';
    }
    return Raw(key, '[' + s + ']');
  }

  std::string str() const { return '{' + body_ + '}'; }

 private:
  JsonObject& Raw(const char* key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ", \"") + std::string(key) + "\": " + v;
    return *this;
  }

  std::string body_;
};

// How the checker compares a candidate's rows with the baseline's: rows
// match on their `key` fields, and `metric` may move the wrong way (`better`
// is "lower" or "higher") by at most --threshold. A row missing from the
// candidate fails. Rows named in `informational` (key values joined by "/")
// have their drift printed but never fail it.
struct Compare {
  std::vector<const char*> key;
  const char* metric = "";
  const char* better = "";
  std::vector<const char*> informational = {};
};

// An absolute bound both files must meet: `metric op bound`, or with `of`,
// `metric op bound x of`. A name is a summary key, or "<row label>.<field>"
// for one row's value. A missing name fails the gate.
struct Gate {
  const char* metric;
  const char* op;  // "<=" or ">=".
  double bound;
  const char* of = nullptr;
};

struct BenchReport {
  std::string bench;
  JsonObject config;
  std::vector<JsonObject> rows;
  JsonObject summary;
  Compare compare;
  std::vector<Gate> gates;

  // Writes to $KAMINO_BENCH_JSON, else BENCH_<bench>.json in the working
  // directory. Returns the process exit code.
  int Write() const {
    const char* env = std::getenv("KAMINO_BENCH_JSON");
    const std::string path = env != nullptr ? env : "BENCH_" + bench + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    JsonObject cmp;
    cmp.List("key", compare.key).Str("metric", compare.metric).Str("better", compare.better);
    if (!compare.informational.empty()) {
      cmp.List("informational", compare.informational);
    }
    std::vector<JsonObject> gate_objs;
    for (const Gate& g : gates) {
      JsonObject& o = gate_objs.emplace_back();
      o.Str("metric", g.metric).Str("op", g.op).Num("bound", g.bound);
      if (g.of != nullptr) {
        o.Str("of", g.of);
      }
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"config\": %s,\n  \"rows\": %s,\n",
                 bench.c_str(), config.str().c_str(), Lines(rows).c_str());
    std::fprintf(f, "  \"summary\": %s,\n  \"compare\": %s,\n  \"gates\": %s\n}\n",
                 summary.str().c_str(), cmp.str().c_str(), Lines(gate_objs).c_str());
    std::fclose(f);
    std::fprintf(stderr, "wrote %s: %s\n", path.c_str(), summary.str().c_str());
    return 0;
  }

 private:
  // A JSON array with one element per line.
  static std::string Lines(const std::vector<JsonObject>& items) {
    std::string s;
    for (const JsonObject& o : items) {
      s += (s.empty() ? "\n    " : ",\n    ") + o.str();
    }
    return s.empty() ? "[]" : '[' + s + "\n  ]";
  }
};

}  // namespace kamino::bench

#endif  // BENCH_BENCH_REPORT_H_
