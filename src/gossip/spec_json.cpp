#include "gossip/spec_json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/parse.h"
#include "sim/telemetry_export.h"  // json_escape

namespace asyncgossip {

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Minimal JSON reader: flattens nested objects into "a.b.c" -> token map.
// Tokens are raw text for numbers/booleans and unescaped text for strings.
// ---------------------------------------------------------------------------

struct Reader {
  const std::string& text;
  std::size_t pos = 0;
  std::string err;

  bool fail(const std::string& message) {
    if (err.empty())
      err = message + " at byte " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
      ++pos;
  }

  bool consume(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }

  bool parse_string(std::string* out) {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"')
      return fail("expected string");
    ++pos;
    out->clear();
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) return fail("truncated escape");
        const char esc = text[pos++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // The artifacts this reader consumes never need non-ASCII;
            // decode BMP escapes to '?' placeholders rather than reject.
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            pos += 4;
            c = '?';
            break;
          }
          default:
            return fail("unknown escape");
        }
      }
      out->push_back(c);
    }
    if (pos >= text.size()) return fail("unterminated string");
    ++pos;  // closing quote
    return true;
  }

  bool parse_scalar(std::string* out) {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '+' || text[pos] == '-' || text[pos] == '.'))
      ++pos;
    if (pos == start) return fail("expected value");
    *out = text.substr(start, pos - start);
    return true;
  }

  bool parse_object(const std::string& prefix,
                    std::map<std::string, std::string>& out) {
    if (!consume('{')) return false;
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    for (;;) {
      std::string key;
      if (!parse_string(&key)) return false;
      if (!consume(':')) return false;
      skip_ws();
      if (pos >= text.size()) return fail("truncated document");
      const std::string path = prefix.empty() ? key : prefix + '.' + key;
      if (text[pos] == '{') {
        if (!parse_object(path, out)) return false;
      } else if (text[pos] == '"') {
        std::string value;
        if (!parse_string(&value)) return false;
        out[path] = value;
      } else if (text[pos] == '[') {
        return fail("arrays are not part of asyncgossip-repro-v1");
      } else {
        std::string value;
        if (!parse_scalar(&value)) return false;
        out[path] = value;
      }
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume('}');
    }
  }
};

bool get_u64(const std::map<std::string, std::string>& kv,
             const std::string& key, std::uint64_t* out) {
  const auto it = kv.find(key);
  return it != kv.end() && parse_uint(std::string_view(it->second), out);
}

bool get_double(const std::map<std::string, std::string>& kv,
                const std::string& key, double* out) {
  const auto it = kv.find(key);
  if (it == kv.end()) return false;
  char* end = nullptr;
  *out = std::strtod(it->second.c_str(), &end);
  return end != it->second.c_str() && *end == '\0';
}

}  // namespace

void write_repro_json(std::ostream& os, const ReproArtifact& artifact) {
  const GossipSpec& s = artifact.spec;
  os << "{\n  \"schema\": \"asyncgossip-repro-v1\",\n";
  os << "  \"failure\": \"" << json_escape(artifact.failure) << "\",\n";
  os << "  \"trace_hash\": \"" << artifact.trace_hash << "\",\n";
  os << "  \"spec\": {\n";
  os << "    \"algorithm\": \"" << to_string(s.algorithm) << "\",\n";
  os << "    \"n\": " << s.n << ",\n";
  os << "    \"f\": " << s.f << ",\n";
  os << "    \"d\": " << s.d << ",\n";
  os << "    \"delta\": " << s.delta << ",\n";
  os << "    \"seed\": \"" << s.seed << "\",\n";
  os << "    \"schedule\": \"" << to_string(s.schedule) << "\",\n";
  os << "    \"delay\": \"" << to_string(s.delay) << "\",\n";
  os << "    \"crash_horizon\": " << s.crash_horizon << ",\n";
  os << "    \"sears_epsilon\": " << num(s.sears_epsilon) << ",\n";
  os << "    \"sears_fanout_constant\": " << num(s.sears_fanout_constant)
     << ",\n";
  os << "    \"ears_shutdown_constant\": " << num(s.ears_shutdown_constant)
     << ",\n";
  os << "    \"tears_a_constant\": " << num(s.tears_a_constant) << ",\n";
  os << "    \"tears_kappa_constant\": " << num(s.tears_kappa_constant)
     << ",\n";
  os << "    \"sync_rounds_constant\": " << num(s.sync_rounds_constant)
     << ",\n";
  os << "    \"lazy_fanout\": " << s.lazy_fanout << ",\n";
  os << "    \"fallback_step_budget\": " << s.fallback_step_budget << ",\n";
  os << "    \"max_steps\": " << s.max_steps << "\n";
  os << "  }\n}\n";
}

bool read_repro_json(std::istream& is, ReproArtifact* out, std::string* error) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();

  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };

  Reader reader{text, 0, {}};
  std::map<std::string, std::string> kv;
  if (!reader.parse_object("", kv)) return fail(reader.err);
  reader.skip_ws();
  if (reader.pos != text.size()) return fail("trailing garbage after document");

  const auto schema = kv.find("schema");
  if (schema == kv.end() || schema->second != "asyncgossip-repro-v1")
    return fail("missing or unknown schema (want asyncgossip-repro-v1)");

  ReproArtifact artifact;
  const auto failure = kv.find("failure");
  if (failure != kv.end()) artifact.failure = failure->second;
  get_u64(kv, "trace_hash", &artifact.trace_hash);

  GossipSpec& s = artifact.spec;
  const auto alg = kv.find("spec.algorithm");
  if (alg == kv.end()) return fail("missing spec.algorithm");
  if (!algorithm_from_string(alg->second, &s.algorithm))
    return fail("unknown algorithm: " + alg->second);

  std::uint64_t u = 0;
  if (!get_u64(kv, "spec.n", &u) || u < 2) return fail("missing or bad spec.n");
  s.n = static_cast<std::size_t>(u);
  if (get_u64(kv, "spec.f", &u)) s.f = static_cast<std::size_t>(u);
  if (get_u64(kv, "spec.d", &u)) s.d = u;
  if (get_u64(kv, "spec.delta", &u)) s.delta = u;
  if (get_u64(kv, "spec.seed", &u)) s.seed = u;
  if (get_u64(kv, "spec.crash_horizon", &u)) s.crash_horizon = u;
  if (get_u64(kv, "spec.lazy_fanout", &u))
    s.lazy_fanout = static_cast<std::size_t>(u);
  if (get_u64(kv, "spec.fallback_step_budget", &u)) s.fallback_step_budget = u;
  if (get_u64(kv, "spec.max_steps", &u)) s.max_steps = u;

  const auto sched = kv.find("spec.schedule");
  if (sched != kv.end() && !schedule_from_string(sched->second, &s.schedule))
    return fail("unknown schedule: " + sched->second);
  const auto delay = kv.find("spec.delay");
  if (delay != kv.end() && !delay_from_string(delay->second, &s.delay))
    return fail("unknown delay: " + delay->second);

  get_double(kv, "spec.sears_epsilon", &s.sears_epsilon);
  get_double(kv, "spec.sears_fanout_constant", &s.sears_fanout_constant);
  get_double(kv, "spec.ears_shutdown_constant", &s.ears_shutdown_constant);
  get_double(kv, "spec.tears_a_constant", &s.tears_a_constant);
  get_double(kv, "spec.tears_kappa_constant", &s.tears_kappa_constant);
  get_double(kv, "spec.sync_rounds_constant", &s.sync_rounds_constant);

  if (s.f >= s.n) return fail("spec needs f < n");
  if (s.d < 1 || s.delta < 1) return fail("spec needs d >= 1 and delta >= 1");

  *out = artifact;
  return true;
}

}  // namespace asyncgossip
