#include "turboflux/serve/protocol.h"

#include <charconv>
#include <cstring>

#include "turboflux/common/serialize.h"

namespace turboflux {
namespace serve {

namespace {

/// Whitespace-splitting cursor over one payload line.
class Tokens {
 public:
  explicit Tokens(std::string_view s) : s_(s) {}

  bool Next(std::string_view* tok) {
    while (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
    if (pos_ >= s_.size()) return false;
    size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ' ') ++pos_;
    *tok = s_.substr(start, pos_ - start);
    return true;
  }

  bool AtEnd() {
    while (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
    return pos_ >= s_.size();
  }

  /// Everything after the current position, leading spaces stripped —
  /// used for free-text tails (ERR messages, STATS JSON).
  std::string_view Rest() {
    while (pos_ < s_.size() && s_[pos_] == ' ') ++pos_;
    std::string_view r = s_.substr(pos_);
    pos_ = s_.size();
    return r;
  }

 private:
  std::string_view s_;
  size_t pos_ = 0;
};

template <typename T>
bool ParseNum(std::string_view tok, T* out) {
  auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), *out);
  return ec == std::errc() && ptr == tok.data() + tok.size();
}

template <typename T>
Status NeedNum(Tokens& toks, const char* what, T* out) {
  std::string_view tok;
  if (!toks.Next(&tok) || !ParseNum(tok, out)) {
    return Status::InvalidArgument(std::string("expected ") + what);
  }
  return Status::Ok();
}

void AppendNum(uint64_t v, std::string& out) {
  out += std::to_string(v);
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kNormal: return "normal";
    case Tier::kShed: return "shed";
    case Tier::kWiden: return "widen";
    case Tier::kReject: return "reject";
  }
  return "?";
}

void EncodeFrame(std::string_view payload, std::string& out) {
  bin::PutU32(out, static_cast<uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
}

void FrameDecoder::Feed(std::string_view bytes) {
  if (!status_.ok()) return;
  // Compact before the buffer doubles in dead prefix.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
}

bool FrameDecoder::Next(std::string* payload) {
  if (!status_.ok()) return false;
  if (buf_.size() - pos_ < 4) return false;
  uint32_t len = bin::LoadU32(buf_.data() + pos_);
  if (len > kMaxFrameBytes) {
    status_ = Status::InvalidArgument(
        "frame length " + std::to_string(len) + " exceeds limit " +
        std::to_string(kMaxFrameBytes));
    return false;
  }
  if (buf_.size() - pos_ - 4 < len) return false;
  payload->assign(buf_, pos_ + 4, len);
  pos_ += 4 + static_cast<size_t>(len);
  return true;
}

Request MakeSubmit(uint64_t channel, uint64_t seq,
                   std::span<const UpdateOp> ops) {
  Request r;
  r.kind = Request::Kind::kSubmit;
  r.channel = channel;
  r.seq = seq;
  r.ops.assign(ops.begin(), ops.end());
  return r;
}

std::string EncodeRequest(const Request& request) {
  std::string out;
  switch (request.kind) {
    case Request::Kind::kSubmit: {
      out += "U ";
      AppendNum(request.channel, out);
      out += ' ';
      AppendNum(request.seq, out);
      out += ' ';
      AppendNum(request.ops.size(), out);
      for (const UpdateOp& op : request.ops) {
        out += op.IsInsert() ? " I " : " D ";
        AppendNum(op.from, out);
        out += ' ';
        AppendNum(op.label, out);
        out += ' ';
        AppendNum(op.to, out);
      }
      break;
    }
    case Request::Kind::kPos:
      out += "POS ";
      AppendNum(request.channel, out);
      break;
    case Request::Kind::kMatches:
      out += "MATCHES ";
      AppendNum(request.start, out);
      out += ' ';
      AppendNum(request.limit, out);
      break;
    case Request::Kind::kHealth:
      out = "HEALTH";
      break;
    case Request::Kind::kStats:
      out = "STATS";
      break;
    case Request::Kind::kPing:
      out = "PING";
      break;
  }
  return out;
}

std::string EncodeResponse(const Response& response) {
  std::string out;
  switch (response.kind) {
    case Response::Kind::kOk:
      out += "OK ";
      AppendNum(response.seq, out);
      break;
    case Response::Kind::kDup:
      out += "DUP ";
      AppendNum(response.seq, out);
      break;
    case Response::Kind::kRetry:
      out += "RETRY ";
      AppendNum(response.retry_after_ms, out);
      out += ' ';
      AppendNum(response.queue_depth, out);
      out += ' ';
      AppendNum(response.queue_cap, out);
      out += ' ';
      out += TierName(response.tier);
      break;
    case Response::Kind::kErr:
      out += "ERR ";
      out += StatusCodeName(response.code);
      out += ' ';
      out += response.text;
      break;
    case Response::Kind::kHealth:
      out += "HEALTH ";
      out += TierName(response.tier);
      out += ' ';
      AppendNum(response.queue_depth, out);
      out += ' ';
      AppendNum(response.queue_cap, out);
      out += ' ';
      AppendNum(response.accepted, out);
      out += ' ';
      AppendNum(response.committed, out);
      break;
    case Response::Kind::kPos:
      out += "POS ";
      AppendNum(response.seq, out);
      break;
    case Response::Kind::kStats:
      out += "STATS ";
      out += response.text;
      break;
    case Response::Kind::kMatches:
      out += "MATCHES ";
      AppendNum(response.matches.size(), out);
      for (const MatchRecord& m : response.matches) {
        out += ' ';
        AppendNum(m.op_index, out);
        out += ' ';
        AppendNum(m.query, out);
        out += m.positive != 0 ? " + " : " - ";
        AppendNum(m.mapping.size(), out);
        for (VertexId v : m.mapping) {
          out += ' ';
          AppendNum(v, out);
        }
      }
      break;
    case Response::Kind::kPong:
      out = "PONG";
      break;
  }
  return out;
}

Status ParseRequest(std::string_view payload, Request* out) {
  *out = Request{};
  Tokens toks(payload);
  std::string_view verb;
  if (!toks.Next(&verb)) {
    return Status::InvalidArgument("empty request");
  }
  if (verb == "U") {
    out->kind = Request::Kind::kSubmit;
    Status s = NeedNum(toks, "channel", &out->channel);
    if (!s.ok()) return s;
    s = NeedNum(toks, "seq", &out->seq);
    if (!s.ok()) return s;
    if (out->seq == 0) {
      return Status::InvalidArgument("seq must be >= 1");
    }
    uint64_t n = 0;
    s = NeedNum(toks, "op count", &n);
    if (!s.ok()) return s;
    if (n == 0) return Status::InvalidArgument("empty submit batch");
    if (n > kMaxFrameBytes / 8) {
      return Status::InvalidArgument("op count exceeds frame capacity");
    }
    out->ops.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      std::string_view kind;
      if (!toks.Next(&kind) || (kind != "I" && kind != "D")) {
        return Status::InvalidArgument("expected op kind I|D");
      }
      UpdateOp op;
      op.type = kind == "I" ? UpdateOp::Type::kInsert : UpdateOp::Type::kDelete;
      s = NeedNum(toks, "from", &op.from);
      if (!s.ok()) return s;
      s = NeedNum(toks, "label", &op.label);
      if (!s.ok()) return s;
      s = NeedNum(toks, "to", &op.to);
      if (!s.ok()) return s;
      out->ops.push_back(op);
    }
  } else if (verb == "POS") {
    out->kind = Request::Kind::kPos;
    Status s = NeedNum(toks, "channel", &out->channel);
    if (!s.ok()) return s;
  } else if (verb == "MATCHES") {
    out->kind = Request::Kind::kMatches;
    Status s = NeedNum(toks, "start", &out->start);
    if (!s.ok()) return s;
    s = NeedNum(toks, "limit", &out->limit);
    if (!s.ok()) return s;
  } else if (verb == "HEALTH") {
    out->kind = Request::Kind::kHealth;
  } else if (verb == "STATS") {
    out->kind = Request::Kind::kStats;
  } else if (verb == "PING") {
    out->kind = Request::Kind::kPing;
  } else {
    return Status::InvalidArgument("unknown request verb: " +
                                   std::string(verb));
  }
  if (!toks.AtEnd()) {
    return Status::InvalidArgument("trailing garbage after request");
  }
  return Status::Ok();
}

namespace {

bool ParseTier(std::string_view tok, Tier* out) {
  if (tok == "normal") *out = Tier::kNormal;
  else if (tok == "shed") *out = Tier::kShed;
  else if (tok == "widen") *out = Tier::kWiden;
  else if (tok == "reject") *out = Tier::kReject;
  else return false;
  return true;
}

bool ParseCode(std::string_view tok, StatusCode* out) {
  for (uint8_t c = 0; c <= static_cast<uint8_t>(StatusCode::kUnsupportedVersion);
       ++c) {
    StatusCode code = static_cast<StatusCode>(c);
    if (tok == StatusCodeName(code)) {
      *out = code;
      return true;
    }
  }
  return false;
}

}  // namespace

Status ParseResponse(std::string_view payload, Response* out) {
  *out = Response{};
  Tokens toks(payload);
  std::string_view verb;
  if (!toks.Next(&verb)) {
    return Status::InvalidArgument("empty response");
  }
  std::string_view tok;
  if (verb == "OK" || verb == "DUP" || verb == "POS") {
    out->kind = verb == "OK" ? Response::Kind::kOk
                : verb == "DUP" ? Response::Kind::kDup
                                : Response::Kind::kPos;
    Status s = NeedNum(toks, "seq", &out->seq);
    if (!s.ok()) return s;
  } else if (verb == "RETRY") {
    out->kind = Response::Kind::kRetry;
    Status s = NeedNum(toks, "retry-after ms", &out->retry_after_ms);
    if (!s.ok()) return s;
    s = NeedNum(toks, "queue depth", &out->queue_depth);
    if (!s.ok()) return s;
    s = NeedNum(toks, "queue cap", &out->queue_cap);
    if (!s.ok()) return s;
    if (!toks.Next(&tok) || !ParseTier(tok, &out->tier)) {
      return Status::InvalidArgument("expected overload tier");
    }
  } else if (verb == "ERR") {
    out->kind = Response::Kind::kErr;
    if (!toks.Next(&tok) || !ParseCode(tok, &out->code)) {
      return Status::InvalidArgument("expected status code name");
    }
    out->text = std::string(toks.Rest());
    return Status::Ok();  // message is free text; no trailing check
  } else if (verb == "HEALTH") {
    out->kind = Response::Kind::kHealth;
    if (!toks.Next(&tok) || !ParseTier(tok, &out->tier)) {
      return Status::InvalidArgument("expected overload tier");
    }
    Status s = NeedNum(toks, "queue depth", &out->queue_depth);
    if (!s.ok()) return s;
    s = NeedNum(toks, "queue cap", &out->queue_cap);
    if (!s.ok()) return s;
    s = NeedNum(toks, "accepted", &out->accepted);
    if (!s.ok()) return s;
    s = NeedNum(toks, "committed", &out->committed);
    if (!s.ok()) return s;
  } else if (verb == "STATS") {
    out->kind = Response::Kind::kStats;
    out->text = std::string(toks.Rest());
    return Status::Ok();  // JSON tail; no trailing check
  } else if (verb == "MATCHES") {
    out->kind = Response::Kind::kMatches;
    uint64_t count = 0;
    Status s = NeedNum(toks, "match count", &count);
    if (!s.ok()) return s;
    if (count > kMaxFrameBytes / 8) {
      return Status::InvalidArgument("match count exceeds frame capacity");
    }
    out->matches.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      MatchRecord m;
      s = NeedNum(toks, "op index", &m.op_index);
      if (!s.ok()) return s;
      s = NeedNum(toks, "query id", &m.query);
      if (!s.ok()) return s;
      if (!toks.Next(&tok) || (tok != "+" && tok != "-")) {
        return Status::InvalidArgument("expected match sign +|-");
      }
      m.positive = tok == "+" ? 1 : 0;
      uint64_t k = 0;
      s = NeedNum(toks, "mapping size", &k);
      if (!s.ok()) return s;
      if (k > kMaxFrameBytes / 8) {
        return Status::InvalidArgument("mapping size exceeds frame capacity");
      }
      m.mapping.resize(static_cast<size_t>(k));
      for (uint64_t j = 0; j < k; ++j) {
        s = NeedNum(toks, "mapping vertex", &m.mapping[j]);
        if (!s.ok()) return s;
      }
      out->matches.push_back(std::move(m));
    }
  } else if (verb == "PONG") {
    out->kind = Response::Kind::kPong;
  } else {
    return Status::InvalidArgument("unknown response verb: " +
                                   std::string(verb));
  }
  if (!toks.AtEnd()) {
    return Status::InvalidArgument("trailing garbage after response");
  }
  return Status::Ok();
}

}  // namespace serve
}  // namespace turboflux
