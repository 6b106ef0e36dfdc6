// JSON round-trip for FaultPlan / FaultArtifact (schema in
// docs/fault_injection.md). The container images carry no JSON library,
// so this is a small hand-rolled reader scoped to exactly the values the
// schema uses: objects, arrays, strings, numbers, booleans. Unknown keys
// are skipped so artifacts stay forward-compatible.
#include "hw/fault.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>

namespace llsc {
namespace {

// --- writer --------------------------------------------------------------

void append_escaped(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        out << c;
    }
  }
  out << '"';
}

std::string double_repr(double v) {
  // Round-trippable without dragging in <charconv> float support quirks:
  // %.17g re-parses to the same double.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- reader --------------------------------------------------------------
//
// Minimal recursive-descent JSON value. Numbers are kept both as double
// and (when the text is a plain non-negative integer) as uint64, because
// seeds do not survive a double round-trip.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::uint64_t uint_value = 0;
  bool has_uint = false;
  std::string string_value;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return parse_string(&out->string_value);
    }
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') {
      if (text_.compare(pos_, 4, "null") == 0) {
        pos_ += 4;
        out->kind = JsonValue::Kind::kNull;
        return true;
      }
      return fail("bad literal");
    }
    return parse_number(out);
  }

  bool parse_object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!consume('[')) return fail("expected '['");
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->items.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          default:
            return fail("unsupported escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool parse_bool(JsonValue* out) {
    out->kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->bool_value = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->bool_value = false;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    out->kind = JsonValue::Kind::kNumber;
    try {
      out->number = std::stod(token);
    } catch (...) {
      return fail("bad number");
    }
    if (integral && token[0] != '-') {
      try {
        out->uint_value = std::stoull(token);
        out->has_uint = true;
      } catch (...) {
        // Out-of-range integers fall back to the double value.
      }
    }
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return "a boolean";
    case JsonValue::Kind::kNumber:
      return "a number";
    case JsonValue::Kind::kString:
      return "a string";
    case JsonValue::Kind::kArray:
      return "an array";
    case JsonValue::Kind::kObject:
      return "an object";
  }
  return "an unknown value";
}

// Field-level diagnostics: every failure names the offending key and the
// expected type/range, so a malformed artifact fails with something a
// human can act on instead of a generic "missing field".
bool field_error(std::string* error, const std::string& key,
                 const std::string& what) {
  if (error != nullptr && error->empty()) {
    *error = "field '" + key + "': " + what;
  }
  return false;
}

bool get_u64(const JsonValue& obj, const std::string& key, std::uint64_t* out,
             std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    return field_error(error, key, "missing (expected an unsigned integer)");
  }
  if (v->kind != JsonValue::Kind::kNumber) {
    return field_error(error, key, std::string("expected an unsigned "
                                               "integer, got ") +
                                       kind_name(v->kind));
  }
  if (!v->has_uint) {
    return field_error(error, key,
                       "expected an unsigned 64-bit integer, got " +
                           double_repr(v->number));
  }
  *out = v->uint_value;
  return true;
}

bool get_u32(const JsonValue& obj, const std::string& key, std::uint32_t* out,
             std::string* error) {
  std::uint64_t u = 0;
  if (!get_u64(obj, key, &u, error)) return false;
  if (u > 0xFFFFFFFFull) {
    return field_error(error, key,
                       "expected an integer in [0, 4294967295], got " +
                           std::to_string(u));
  }
  *out = static_cast<std::uint32_t>(u);
  return true;
}

bool get_double(const JsonValue& obj, const std::string& key, double* out,
                std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    return field_error(error, key, "missing (expected a number)");
  }
  if (v->kind != JsonValue::Kind::kNumber) {
    return field_error(error, key, std::string("expected a number, got ") +
                                       kind_name(v->kind));
  }
  *out = v->number;
  return true;
}

// Probability fields must land in [0, 1] — a rate of 7 is a corrupt
// artifact, not a very unlucky run.
bool get_rate(const JsonValue& obj, const std::string& key, double* out,
              std::string* error) {
  if (!get_double(obj, key, out, error)) return false;
  if (std::isnan(*out) || *out < 0.0 || *out > 1.0) {
    return field_error(error, key, "expected a probability in [0, 1], got " +
                                       double_repr(*out));
  }
  return true;
}

bool get_bool(const JsonValue& obj, const std::string& key, bool* out,
              std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    return field_error(error, key, "missing (expected true or false)");
  }
  if (v->kind != JsonValue::Kind::kBool) {
    return field_error(error, key,
                       std::string("expected true or false, got ") +
                           kind_name(v->kind));
  }
  *out = v->bool_value;
  return true;
}

bool plan_from_value(const JsonValue& obj, FaultPlan* out, std::string* error) {
  if (obj.kind != JsonValue::Kind::kObject) {
    if (error != nullptr) *error = "plan is not an object";
    return false;
  }
  FaultPlan plan;
  if (!get_u64(obj, "seed", &plan.seed, error)) return false;
  if (!get_rate(obj, "sc_fail_rate", &plan.sc_fail_rate, error)) return false;
  if (!get_rate(obj, "vl_fail_rate", &plan.vl_fail_rate, error)) return false;
  if (!get_rate(obj, "stall_rate", &plan.stall_rate, error)) return false;
  if (!get_u32(obj, "max_stall_units", &plan.max_stall_units, error)) {
    return false;
  }
  if (!get_u32(obj, "stall_unit_ns", &plan.stall_unit_ns, error)) return false;
  // Adversarial-placement fields are optional: oblivious plans (PR 3 and
  // earlier producers) omit them entirely and parse to the defaults.
  const JsonValue* strategy = obj.find("strategy");
  if (strategy != nullptr) {
    if (strategy->kind != JsonValue::Kind::kString) {
      return field_error(error, "strategy",
                         std::string("expected one of \"oblivious\", "
                                     "\"adaptive\", \"burst\", got ") +
                             kind_name(strategy->kind));
    }
    if (!fault_strategy_from_string(strategy->string_value, &plan.strategy)) {
      return field_error(error, "strategy",
                         "expected one of \"oblivious\", \"adaptive\", "
                         "\"burst\", got \"" +
                             strategy->string_value + "\"");
    }
  }
  if (obj.find("fault_budget") != nullptr) {
    if (!get_u64(obj, "fault_budget", &plan.fault_budget, error)) return false;
  }
  if (obj.find("burst_len") != nullptr) {
    if (!get_u32(obj, "burst_len", &plan.burst_len, error)) return false;
  }
  if (obj.find("burst_period") != nullptr) {
    if (!get_u32(obj, "burst_period", &plan.burst_period, error)) return false;
  }
  const JsonValue* trace = obj.find("trace");
  if (trace != nullptr) {
    if (trace->kind != JsonValue::Kind::kArray) {
      if (error != nullptr) *error = "'trace' is not an array";
      return false;
    }
    for (const JsonValue& d : trace->items) {
      if (d.kind != JsonValue::Kind::kObject) {
        if (error != nullptr) *error = "trace entry is not an object";
        return false;
      }
      FaultDecision decision;
      std::uint64_t proc = 0;
      if (!get_u64(d, "proc", &proc, error)) return false;
      decision.proc = static_cast<ProcId>(proc);
      if (!get_u64(d, "op", &decision.op_index, error)) return false;
      const JsonValue* vl = d.find("vl");
      if (vl != nullptr && vl->kind == JsonValue::Kind::kBool) {
        decision.is_vl = vl->bool_value;
      }
      if (d.find("score") != nullptr) {
        if (!get_u64(d, "score", &decision.score, error)) return false;
      }
      plan.trace.decisions.push_back(decision);
    }
  }
  const JsonValue* crashes = obj.find("crashes");
  if (crashes == nullptr) {
    return field_error(error, "crashes",
                       "missing (expected an array of crash entries)");
  }
  if (crashes->kind != JsonValue::Kind::kArray) {
    return field_error(error, "crashes",
                       std::string("expected an array, got ") +
                           kind_name(crashes->kind));
  }
  for (const JsonValue& c : crashes->items) {
    if (c.kind != JsonValue::Kind::kObject) {
      return field_error(error, "crashes",
                         std::string("expected entries of the form "
                                     "{\"proc\", \"after_ops\"}, got ") +
                             kind_name(c.kind));
    }
    CrashSpec spec;
    std::uint64_t proc = 0;
    if (!get_u64(c, "proc", &proc, error)) return false;
    spec.proc = static_cast<ProcId>(proc);
    if (!get_u64(c, "after_ops", &spec.after_ops, error)) return false;
    // Optional recovery directive; pre-recovery artifacts omit it and
    // parse to the crash-stop default.
    const JsonValue* recovery = c.find("recovery");
    if (recovery != nullptr) {
      if (recovery->kind != JsonValue::Kind::kObject) {
        return field_error(error, "recovery",
                           std::string("expected an object "
                                       "{\"delay_units\", \"max_restarts\", "
                                       "\"amnesia\"}, got ") +
                               kind_name(recovery->kind));
      }
      if (!get_u32(*recovery, "delay_units", &spec.recovery.delay_units,
                   error)) {
        return false;
      }
      if (!get_u32(*recovery, "max_restarts", &spec.recovery.max_restarts,
                   error)) {
        return false;
      }
      if (recovery->find("amnesia") != nullptr &&
          !get_bool(*recovery, "amnesia", &spec.recovery.amnesia, error)) {
        return false;
      }
    }
    plan.crashes.push_back(spec);
  }
  *out = plan;
  return true;
}

void plan_to_stream(const FaultPlan& plan, std::ostringstream& out,
                    const char* indent) {
  out << "{\n";
  out << indent << "  \"seed\": " << plan.seed << ",\n";
  out << indent << "  \"sc_fail_rate\": " << double_repr(plan.sc_fail_rate)
      << ",\n";
  out << indent << "  \"vl_fail_rate\": " << double_repr(plan.vl_fail_rate)
      << ",\n";
  out << indent << "  \"stall_rate\": " << double_repr(plan.stall_rate)
      << ",\n";
  out << indent << "  \"max_stall_units\": " << plan.max_stall_units << ",\n";
  out << indent << "  \"stall_unit_ns\": " << plan.stall_unit_ns << ",\n";
  // Keep the PR 3 schema byte-stable for oblivious plans: the adversarial
  // fields appear only when they carry non-default values.
  if (plan.strategy != FaultStrategyKind::kOblivious) {
    out << indent << "  \"strategy\": \"" << to_string(plan.strategy)
        << "\",\n";
  }
  if (plan.fault_budget != 0) {
    out << indent << "  \"fault_budget\": " << plan.fault_budget << ",\n";
  }
  if (plan.burst_len != 0 || plan.burst_period != 0) {
    out << indent << "  \"burst_len\": " << plan.burst_len << ",\n";
    out << indent << "  \"burst_period\": " << plan.burst_period << ",\n";
  }
  if (!plan.trace.empty()) {
    out << indent << "  \"trace\": [";
    for (std::size_t i = 0; i < plan.trace.decisions.size(); ++i) {
      const FaultDecision& d = plan.trace.decisions[i];
      if (i != 0) out << ",";
      out << "\n"
          << indent << "    {\"proc\": " << d.proc
          << ", \"op\": " << d.op_index
          << ", \"vl\": " << (d.is_vl ? "true" : "false")
          << ", \"score\": " << d.score << "}";
    }
    out << "\n" << indent << "  ],\n";
  }
  out << indent << "  \"crashes\": [";
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    const CrashSpec& c = plan.crashes[i];
    if (i != 0) out << ",";
    out << "\n"
        << indent << "    {\"proc\": " << c.proc
        << ", \"after_ops\": " << c.after_ops;
    // Crash-stop entries keep the pre-recovery schema byte for byte; the
    // recovery object appears only when the entry actually recovers.
    if (c.recovery.enabled()) {
      out << ", \"recovery\": {\"delay_units\": " << c.recovery.delay_units
          << ", \"max_restarts\": " << c.recovery.max_restarts
          << ", \"amnesia\": " << (c.recovery.amnesia ? "true" : "false")
          << "}";
    }
    out << "}";
  }
  if (!plan.crashes.empty()) out << "\n" << indent << "  ";
  out << "]\n" << indent << "}";
}

RunStatus status_from_string(const std::string& s, bool* ok) {
  *ok = true;
  if (s == "clean") return RunStatus::kClean;
  if (s == "spec-violation") return RunStatus::kSpecViolation;
  if (s == "crashed") return RunStatus::kCrashed;
  if (s == "hung") return RunStatus::kHung;
  *ok = false;
  return RunStatus::kClean;
}

}  // namespace

std::string FaultPlan::to_json() const {
  std::ostringstream out;
  plan_to_stream(*this, out, "");
  out << "\n";
  return out.str();
}

bool FaultPlan::from_json(const std::string& text, FaultPlan* out,
                          std::string* error) {
  if (error != nullptr) error->clear();
  JsonValue root;
  Parser parser(text, error);
  if (!parser.parse(&root)) return false;
  return plan_from_value(root, out, error);
}

std::string FaultArtifact::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"scenario\": ";
  append_escaped(out, scenario);
  out << ",\n";
  out << "  \"n\": " << n << ",\n";
  out << "  \"sample_index\": " << sample_index << ",\n";
  out << "  \"toss_seed\": " << toss_seed << ",\n";
  out << "  \"max_rounds\": " << max_rounds << ",\n";
  out << "  \"status\": \"" << to_string(status) << "\",\n";
  // Storage/width keys are emitted only for non-boxed runs, keeping the
  // schema of boxed-policy artifacts byte-stable across PRs.
  if (storage != StoragePolicy::kBoxed) {
    out << "  \"storage_policy\": \"" << to_string(storage) << "\",\n";
    out << "  \"overflow_events\": " << overflow_events << ",\n";
    out << "  \"max_bits\": " << max_bits << ",\n";
    out << "  \"boxed_fallback_registers\": " << boxed_fallback_registers
        << ",\n";
  }
  // Reclamation keys follow the same contract: emitted only when the
  // sample ran a non-default reclaimer.
  if (reclaimer != ReclaimPolicy::kEpoch) {
    out << "  \"reclaimer\": \"" << to_string(reclaimer) << "\",\n";
    out << "  \"nodes_retired\": " << nodes_retired << ",\n";
    out << "  \"nodes_reclaimed\": " << nodes_reclaimed << ",\n";
  }
  out << "  \"proc_ops\": [";
  for (std::size_t i = 0; i < proc_ops.size(); ++i) {
    if (i != 0) out << ", ";
    out << proc_ops[i];
  }
  out << "],\n";
  out << "  \"plan\": ";
  plan_to_stream(plan, out, "  ");
  out << "\n}\n";
  return out.str();
}

bool FaultArtifact::from_json(const std::string& text, FaultArtifact* out,
                              std::string* error) {
  if (error != nullptr) error->clear();
  JsonValue root;
  Parser parser(text, error);
  if (!parser.parse(&root)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    if (error != nullptr) *error = "artifact is not an object";
    return false;
  }
  FaultArtifact artifact;
  const JsonValue* scenario = root.find("scenario");
  if (scenario == nullptr || scenario->kind != JsonValue::Kind::kString) {
    if (error != nullptr) *error = "missing 'scenario' string";
    return false;
  }
  artifact.scenario = scenario->string_value;
  std::uint64_t u = 0;
  if (!get_u64(root, "n", &u, error)) return false;
  artifact.n = static_cast<int>(u);
  const JsonValue* sample = root.find("sample_index");
  if (sample != nullptr && sample->kind == JsonValue::Kind::kNumber) {
    artifact.sample_index = static_cast<int>(sample->number);
  }
  if (!get_u64(root, "toss_seed", &artifact.toss_seed, error)) return false;
  if (!get_u64(root, "max_rounds", &u, error)) return false;
  artifact.max_rounds = static_cast<int>(u);
  const JsonValue* status = root.find("status");
  if (status == nullptr || status->kind != JsonValue::Kind::kString) {
    if (error != nullptr) *error = "missing 'status' string";
    return false;
  }
  bool status_ok = false;
  artifact.status = status_from_string(status->string_value, &status_ok);
  if (!status_ok) {
    if (error != nullptr) *error = "unknown status '" + status->string_value + "'";
    return false;
  }
  // Optional storage/width block (absent on boxed-policy artifacts).
  const JsonValue* storage = root.find("storage_policy");
  if (storage != nullptr) {
    if (storage->kind != JsonValue::Kind::kString) {
      if (error != nullptr) *error = "'storage_policy' is not a string";
      return false;
    }
    const std::optional<StoragePolicy> policy =
        parse_storage_policy(storage->string_value);
    if (!policy) {
      if (error != nullptr) {
        *error = "unknown storage_policy '" + storage->string_value + "'";
      }
      return false;
    }
    artifact.storage = *policy;
    if (root.find("overflow_events") != nullptr &&
        !get_u64(root, "overflow_events", &artifact.overflow_events, error)) {
      return false;
    }
    if (root.find("max_bits") != nullptr) {
      if (!get_u64(root, "max_bits", &u, error)) return false;
      artifact.max_bits = static_cast<std::size_t>(u);
    }
    if (root.find("boxed_fallback_registers") != nullptr &&
        !get_u64(root, "boxed_fallback_registers",
                 &artifact.boxed_fallback_registers, error)) {
      return false;
    }
  }
  // Optional reclamation block (absent on epoch-policy artifacts).
  const JsonValue* reclaimer = root.find("reclaimer");
  if (reclaimer != nullptr) {
    if (reclaimer->kind != JsonValue::Kind::kString) {
      if (error != nullptr) *error = "'reclaimer' is not a string";
      return false;
    }
    if (reclaimer->string_value == "epoch") {
      artifact.reclaimer = ReclaimPolicy::kEpoch;
    } else if (reclaimer->string_value == "hazard") {
      artifact.reclaimer = ReclaimPolicy::kHazard;
    } else {
      if (error != nullptr) {
        *error = "unknown reclaimer '" + reclaimer->string_value + "'";
      }
      return false;
    }
    if (root.find("nodes_retired") != nullptr &&
        !get_u64(root, "nodes_retired", &artifact.nodes_retired, error)) {
      return false;
    }
    if (root.find("nodes_reclaimed") != nullptr &&
        !get_u64(root, "nodes_reclaimed", &artifact.nodes_reclaimed,
                 error)) {
      return false;
    }
  }
  const JsonValue* ops = root.find("proc_ops");
  if (ops == nullptr || ops->kind != JsonValue::Kind::kArray) {
    if (error != nullptr) *error = "missing 'proc_ops' array";
    return false;
  }
  for (const JsonValue& v : ops->items) {
    if (v.kind != JsonValue::Kind::kNumber || !v.has_uint) {
      if (error != nullptr) *error = "non-integer entry in 'proc_ops'";
      return false;
    }
    artifact.proc_ops.push_back(v.uint_value);
  }
  const JsonValue* plan = root.find("plan");
  if (plan == nullptr) {
    if (error != nullptr) *error = "missing 'plan' object";
    return false;
  }
  if (!plan_from_value(*plan, &artifact.plan, error)) return false;
  *out = artifact;
  return true;
}

}  // namespace llsc
